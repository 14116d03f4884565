module Params = Hextime_core.Params
module Footprint = Hextime_tiling.Footprint
module Config = Hextime_tiling.Config
module Stencil = Hextime_stencil.Stencil
module Problem = Hextime_stencil.Problem

(* exactly of_problem's shared_words field, without building a throwaway
   Config and the rest of the footprint for each of the ~1e3 shapes *)
let footprint_words (problem : Problem.t) (shape : Space.shape) =
  Footprint.shared_words_of
    ~word_factor:(Problem.word_factor problem)
    ~order:problem.Problem.stencil.Stencil.order ~t_t:shape.Space.t_t
    shape.Space.t_s

(* take [n] elements evenly spread over the list, keeping order *)
let spread n xs =
  let len = List.length xs in
  if len <= n then xs
  else
    let arr = Array.of_list xs in
    List.init n (fun i -> arr.(i * len / n))

let tile_shapes (p : Params.t) (problem : Problem.t) =
  let cap = p.Params.shared_mem_per_block in
  (* (position, shape, footprint), largest footprint first *)
  let ranked =
    Space.shapes p problem
    |> List.map (fun s -> (s, footprint_words problem s))
    |> List.sort (fun (_, a) (_, b) -> compare b a)
    |> List.mapi (fun i (s, fp) -> (i, s, fp))
  in
  let band lo hi =
    List.filter
      (fun (_, _, fp) ->
        let frac = float_of_int fp /. float_of_int cap in
        frac > lo && frac <= hi)
      ranked
  in
  (* Section 5.1: predominantly footprint-maximising shapes (the 48 KB
     per-block cap leaves hyper-threading factor two), plus a smaller set
     that leaves room for more resident blocks: 85 in total *)
  let large = spread 70 (band 0.8 1.0) in
  let mid = spread 10 (band 0.5 0.8) in
  let small = spread 5 (band 0.0 0.5) in
  let chosen = large @ mid @ small in
  let shapes = List.map (fun (_, s, _) -> s) in
  (* backfill from the full ranking if a band was sparse (every 3D problem:
     its top band holds fewer than 70 shapes); the chosen shapes are
     marked by position, so this is one pass *)
  let missing = 85 - List.length chosen in
  if missing <= 0 then shapes chosen
  else
    let taken = Array.make (List.length ranked) false in
    List.iter (fun (i, _, _) -> taken.(i) <- true) chosen;
    shapes
      (chosen
      @ spread missing (List.filter (fun (i, _, _) -> not taken.(i)) ranked))

let data_points p problem =
  tile_shapes p problem
  |> List.concat_map (fun shape ->
         List.filter_map
           (fun threads ->
             match
               Config.make ~t_t:shape.Space.t_t ~t_s:shape.Space.t_s
                 ~threads:[| threads |]
             with
             | Ok c -> Some c
             | Error _ -> None)
           Space.thread_candidates)
