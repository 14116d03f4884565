module Cache = Cache
module Dpool = Dpool

type backend = [ `Domains ]
type exec = { jobs : int; cache : Cache.t option; backend : backend }

let serial = { jobs = 1; cache = None; backend = `Domains }

let default ?jobs ?cache_dir () =
  let jobs =
    match jobs with Some j -> max 1 j | None -> Dpool.default_jobs ()
  in
  { serial with jobs; cache = Some (Cache.create ?dir:cache_dir ()) }

type stats = { total : int; cache_hits : int; computed : int }

let map ?label exec ~key ~f tasks =
  let arr = Array.of_list tasks in
  let n = Array.length arr in
  (* keys exist only to address the cache; without one, don't pay for
     formatting them *)
  let keys =
    match exec.cache with None -> [||] | Some _ -> Array.map key arr
  in
  let results = Array.make n None in
  let hits = ref 0 in
  (match exec.cache with
  | None -> ()
  | Some c ->
      Array.iteri
        (fun i k ->
          match Cache.get c ~key:k with
          | Some v ->
              results.(i) <- Some (Ok v);
              incr hits
          | None -> ())
        keys);
  let todo = ref [] in
  for i = n - 1 downto 0 do
    match results.(i) with None -> todo := i :: !todo | Some _ -> ()
  done;
  let todo = Array.of_list !todo in
  let on_result j r =
    match (exec.cache, r) with
    | Some c, Ok v -> Cache.put c ~key:keys.(todo.(j)) v
    | _ -> ()
  in
  (* hexwatch heartbeat: one progress tracker per sweep, spanning cache
     hits and computed points alike, so the status line and the
     sweep.points_* gauges always describe the whole sweep *)
  let progress =
    match label with
    | None -> None
    | Some label -> Some (Hextime_obs.Progress.create ~total:n ~label ())
  in
  (match progress with
  | Some p when !hits > 0 -> Hextime_obs.Progress.tick p ~done_:!hits
  | _ -> ());
  let on_progress ~done_ ~alive ~busy =
    match progress with
    | None -> ()
    | Some p ->
        Hextime_obs.Progress.tick p ~done_:(!hits + done_)
          ~workers_alive:alive ~workers_busy:busy
  in
  let misses = Array.map (fun i -> arr.(i)) todo in
  let outcomes = Dpool.map ~jobs:exec.jobs ~on_result ~on_progress ~f misses in
  (match progress with
  | Some p -> Hextime_obs.Progress.finish p
  | None -> ());
  Array.iteri (fun j r -> results.(todo.(j)) <- Some r) outcomes;
  let out =
    Array.to_list
      (Array.map
         (function Some r -> r | None -> Error "parsweep: missing result")
         results)
  in
  (out, { total = n; cache_hits = !hits; computed = Array.length misses })

let pp_stats ppf s =
  Format.fprintf ppf "%d points: %d cached, %d computed" s.total s.cache_hits
    s.computed
