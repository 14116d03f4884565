module Dpool = Dpool

type backend = [ `Domains ]
type exec = { jobs : int; backend : backend; reserved : unit }

let serial = { jobs = 1; backend = `Domains; reserved = () }

let default ?jobs () =
  let jobs =
    match jobs with Some j -> max 1 j | None -> Dpool.default_jobs ()
  in
  { serial with jobs }

type stats = { total : int }

let map ?label ?key:_ exec ~f tasks =
  let arr = Array.of_list tasks in
  let n = Array.length arr in
  let progress =
    Option.map (fun label -> Hextime_obs.Progress.create ~total:n ~label ()) label
  in
  (* [tick] reads the clock; every 64th completion is often enough for a
     heartbeat throttled to one per half second *)
  let on_progress ~done_ ~alive ~busy =
    match progress with
    | Some p when done_ land 63 = 0 || done_ = n ->
        Hextime_obs.Progress.tick p ~done_ ~workers_alive:alive
          ~workers_busy:busy
    | Some _ | None -> ()
  in
  let outcomes = Dpool.map ~jobs:exec.jobs ~on_progress ~f arr in
  Option.iter Hextime_obs.Progress.finish progress;
  (Array.to_list outcomes, { total = n })

let pp_stats ppf s = Format.fprintf ppf "%d points" s.total
