module Ints = Hextime_prelude.Ints
module Problem = Hextime_stencil.Problem
module Stencil = Hextime_stencil.Stencil
module Config = Hextime_tiling.Config
module Footprint = Hextime_tiling.Footprint
module Params = Hextime_core.Params

type shape = { t_t : int; t_s : int array }

let thread_candidates = [ 32; 64; 96; 128; 160; 192; 256; 384; 512; 1024 ]

let t_t_candidates = Ints.range ~step:2 2 64

let hex_candidates ~limit =
  List.filter (fun s -> s <= limit) [ 1; 2; 3; 4; 6; 8; 10; 12; 16; 20; 24; 32; 40; 48; 64; 96; 128 ]

let mid_candidates ~limit =
  List.filter (fun s -> s <= limit) [ 1; 2; 4; 6; 8; 12; 16; 24; 32; 48; 64 ]

let inner_candidates ~limit =
  List.filter (fun s -> s <= limit) (List.map (fun i -> 32 * i) (Ints.range 1 16))

let to_config shape ~threads =
  Config.make_exn ~t_t:shape.t_t ~t_s:shape.t_s ~threads

(* the product lattice the enumeration filters: t_t candidates bounded by
   2 * T, and per-dimension tile-size candidates bounded by the problem
   extent.  Exposed so Hexabs can prove facts about whole sub-lattices of
   exactly the space [shapes] enumerates. *)
let axes (problem : Problem.t) =
  let rank = problem.stencil.Stencil.rank in
  let space = problem.space in
  let tt =
    Array.of_list (List.filter (fun t -> t <= 2 * problem.time) t_t_candidates)
  in
  let ts =
    match rank with
    | 1 -> [| Array.of_list (hex_candidates ~limit:space.(0)) |]
    | 2 ->
        [|
          Array.of_list (hex_candidates ~limit:space.(0));
          Array.of_list (inner_candidates ~limit:space.(1));
        |]
    | 3 ->
        [|
          Array.of_list (hex_candidates ~limit:space.(0));
          Array.of_list (mid_candidates ~limit:space.(1));
          Array.of_list (inner_candidates ~limit:space.(2));
        |]
    | _ -> assert false
  in
  (tt, ts)

let shapes (p : Params.t) (problem : Problem.t) =
  (* The lattice in order — t_t outermost, then t_s dimension by dimension
     — keeping the points whose shared-memory footprint
     (Footprint.shared_words_of) is within the per-block cap.  The
     footprint is multiplied in one dimension at a time; every factor is
     at least 2 and grows along each ascending axis, so the first value
     whose partial product is over the cap ends that axis: no later
     value, and no completion of the prefix, can fit. *)
  let word_factor = Problem.word_factor problem in
  let order = problem.stencil.Stencil.order in
  let shared_limit = p.Params.shared_mem_per_block in
  let tt_axis, ts_axes = axes problem in
  let rank = Array.length ts_axes in
  let t_s = Array.make rank 0 in
  let found = ref [] in
  let rec fill t_t d words =
    if d = rank then found := { t_t; t_s = Array.copy t_s } :: !found
    else
      let axis = ts_axes.(d) in
      let rec go i =
        if i < Array.length axis then begin
          let words = words * Footprint.shared_extent ~order ~t_t axis.(i) in
          if words <= shared_limit then begin
            t_s.(d) <- axis.(i);
            fill t_t (d + 1) words;
            go (i + 1)
          end
        end
      in
      go 0
  in
  (* the axes already bound t_t by 2 * problem.time *)
  Array.iter (fun t_t -> fill t_t 0 (2 * word_factor)) tt_axis;
  List.rev !found

let id s =
  Printf.sprintf "tT%d-tS%s" s.t_t
    (String.concat "x" (Array.to_list (Array.map string_of_int s.t_s)))

let pp ppf s = Format.pp_print_string ppf (id s)
