type t = int64

(* splitmix64 finalizer: good avalanche behaviour, trivially portable.
   Inlined so the byte loop of [fold_bytes] keeps its state unboxed. *)
let[@inline] mix64 (z : int64) : int64 =
  let open Int64 in
  let z = add z 0x9E3779B97F4A7C15L in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let mix_int h i = mix64 (Int64.add h (Int64.of_int i))

(* [mix_int] per byte; a plain loop, because a closure over the
   accumulator would box an int64 per byte.  [fold_bytes] and [finalise]
   are inlined into [mix_string], so its state stays unboxed until the
   digest is returned. *)
let[@inline] fold_bytes h s ~pos =
  if pos < 0 || pos > String.length s then invalid_arg "Det_hash.fold_bytes";
  let acc = ref h in
  for i = pos to String.length s - 1 do
    acc := mix64 (Int64.add !acc (Int64.of_int (Char.code (String.unsafe_get s i))))
  done;
  !acc

let[@inline] finalise h = mix64 h
let mix_string h s = finalise (fold_bytes h s ~pos:0)
let mix_float h f = mix_int h (Int64.to_int (Int64.bits_of_float f))
let create seed = mix_string 0x5DEECE66DL seed
let to_int64 h = mix64 h

let uniform h =
  let bits = Int64.shift_right_logical (mix64 h) 11 in
  Int64.to_float bits /. 9007199254740992.0 (* 2^53 *)

let jitter h ~amplitude =
  assert (amplitude >= 0.0 && amplitude < 1.0);
  1.0 +. (amplitude *. ((2.0 *. uniform h) -. 1.0))
