module Ints = Hextime_prelude.Ints

type t = {
  input_words : int;
  output_words : int;
  shared_words : int;
  chunks : int;
  inner_stride : int;
}

(* shared buffer: the hexagon's bounding extent per dimension, padded by
   one word in the inner dimension (Equation 19 and its 3D analogue).
   Exposed separately so the tile-space enumerator can probe feasibility
   without building a Config or a full footprint per candidate. *)
let shared_extent ~order ~t_t s = s + (order * t_t) + 1

let shared_words_of ?(word_factor = 1) ~order ~t_t t_s =
  2
  * Array.fold_left (fun acc s -> acc * shared_extent ~order ~t_t s) 1 t_s
  * word_factor

let of_config ?(word_factor = 1) ~order ~space (cfg : Config.t) =
  let rank = Config.rank cfg in
  if Array.length space <> rank then
    invalid_arg "Footprint.of_config: rank mismatch";
  if order < 1 then invalid_arg "Footprint.of_config: order must be >= 1";
  if word_factor < 1 then
    invalid_arg "Footprint.of_config: word_factor must be >= 1";
  let t_t = cfg.t_t and t_s = cfg.t_s in
  (* cross-section of the hexagon's I/O in the (t, s0) plane: the base plus
     the two oblique sides (Equation 7 for order 1) *)
  let mi_cross = t_s.(0) + (2 * order * t_t) in
  let inner_product =
    Array.fold_left ( * ) 1 (Array.sub t_s 1 (rank - 1))
  in
  let m = mi_cross * inner_product in
  let shared_words = shared_words_of ~order ~t_t t_s in
  (* the skewed cuts are at order*t + s = const, so a tile's inner span is
     the extent plus order * t_t (Equation 23's S + tT, generalised) *)
  let skew_span d = space.(d) + (order * t_t) in
  let chunks =
    match rank with
    | 1 -> 1
    | 2 -> Ints.ceil_div (skew_span 1) t_s.(1)
    | 3 ->
        (* Equation 23: ceiling of the product of the per-dimension ratios *)
        let r d = float_of_int (skew_span d) /. float_of_int t_s.(d) in
        int_of_float (ceil (r 1 *. r 2))
    | _ -> assert false
  in
  let inner_stride = (t_s.(rank - 1) + (order * t_t)) * word_factor + 1 in
  {
    input_words = m * word_factor;
    output_words = m * word_factor;
    shared_words = shared_words * word_factor;
    chunks;
    inner_stride;
  }

let io_words_per_tile f = (f.input_words + f.output_words) * f.chunks

let of_problem (problem : Hextime_stencil.Problem.t) cfg =
  of_config
    ~word_factor:(Hextime_stencil.Problem.word_factor problem)
    ~order:problem.Hextime_stencil.Problem.stencil.Hextime_stencil.Stencil.order
    ~space:problem.Hextime_stencil.Problem.space cfg
