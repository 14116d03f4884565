type precision = F32 | F64

type t = {
  stencil : Stencil.t;
  space : int array;
  time : int;
  precision : precision;
}

let make ?(precision = F32) stencil ~space ~time =
  if Array.length space <> stencil.Stencil.rank then
    invalid_arg "Problem.make: space rank mismatch";
  Array.iter
    (fun s ->
      if s < (2 * stencil.Stencil.order) + 1 then
        invalid_arg "Problem.make: extent too small for stencil order")
    space;
  if time < 1 then invalid_arg "Problem.make: time must be >= 1";
  { stencil; space = Array.copy space; time; precision }

let word_factor p = match p.precision with F32 -> 1 | F64 -> 2

let points_per_step p =
  let b = 2 * p.stencil.Stencil.order in
  Array.fold_left (fun acc s -> acc * (s - b)) 1 p.space

let total_updates p = points_per_step p * p.time

let total_flops p =
  float_of_int (total_updates p) *. float_of_int p.stencil.Stencil.flops

let add_id buf p =
  let module Ints = Hextime_prelude.Ints in
  Buffer.add_string buf p.stencil.Stencil.name;
  Buffer.add_char buf ':';
  Ints.add_dims buf p.space;
  Buffer.add_string buf "xT";
  Ints.add_decimal buf p.time;
  match p.precision with F32 -> () | F64 -> Buffer.add_string buf "-f64"

let id p =
  let buf = Buffer.create 32 in
  add_id buf p;
  Buffer.contents buf

let pp ppf p = Format.pp_print_string ppf (id p)

let mix_pricing h p =
  let module D = Hextime_prelude.Det_hash in
  let h = Stencil.mix_pricing h p.stencil in
  let h = Array.fold_left D.mix_int h p.space in
  let h = D.mix_int h p.time in
  D.mix_int h (match p.precision with F32 -> 0 | F64 -> 1)

let paper_sizes_2d =
  List.concat_map
    (fun s ->
      List.map (fun t -> ([| s; s |], t)) [ 1024; 2048; 4096; 8192; 16384 ])
    [ 4096; 8192 ]

let paper_sizes_3d =
  (* 3 space sizes x 5 T values restricted to T <= S (as stated in Section 5)
     gives exactly the paper's 12 combinations: 3 for 384^3, 4 for 512^3 and
     5 for 640^3. *)
  List.concat_map
    (fun s ->
      List.filter_map
        (fun t -> if t <= s then Some ([| s; s; s |], t) else None)
        [ 128; 256; 384; 512; 640 ])
    [ 384; 512; 640 ]
