module Metrics = Hextime_obs.Metrics
module Trace = Hextime_obs.Trace

type 'b outcome = ('b, string) result

let tasks_counter = Metrics.counter "pool.tasks"
let task_hist = Metrics.histogram "pool.task_seconds"

let default_jobs () =
  match Option.bind (Sys.getenv_opt "HEXTIME_JOBS") int_of_string_opt with
  | Some n when n >= 1 -> n
  | Some _ | None -> max 1 (Domain.recommended_domain_count ())

let in_process ~on_progress ~f (tasks : 'a array) results =
  Array.iteri
    (fun i t ->
      let t0 = Unix.gettimeofday () in
      let r = try Ok (f t) with e -> Error (Printexc.to_string e) in
      Metrics.incr tasks_counter;
      Metrics.observe task_hist (Unix.gettimeofday () -. t0);
      results.(i) <- r;
      on_progress ~done_:(i + 1) ~alive:0 ~busy:0)
    tasks;
  results

let map ?jobs ?(on_progress = fun ~done_:_ ~alive:_ ~busy:_ -> ()) ~f
    (tasks : 'a array) =
  let n = Array.length tasks in
  let jobs = match jobs with Some j -> max 1 j | None -> default_jobs () in
  let results : 'b outcome array =
    Array.make n (Error "parsweep: not executed")
  in
  if jobs <= 1 || n <= 1 then
    in_process ~on_progress ~f tasks results
  else begin
    let jobs = min jobs n in
    (* Work distribution is one atomic counter: each worker claims the next
       unclaimed index.  Results land at their task index — every slot is
       written by exactly one domain, so the array needs no lock.  Only the
       progress callback does: [on_progress] drives one progress tracker,
       which is not domain-safe, so it runs under [record_mutex] along with
       the completion count it observes. *)
    let next = Atomic.make 0 in
    let done_count = ref 0 in
    let record_mutex = Mutex.create () in
    let worker () =
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          let t0 = Unix.gettimeofday () in
          let ts_us = Trace.now_us () in
          let r = try Ok (f tasks.(i)) with e -> Error (Printexc.to_string e) in
          let dt = Unix.gettimeofday () -. t0 in
          if Trace.enabled () then
            Trace.emit
              (Trace.make ~cat:"pool" ~ph:"X" ~ts_us ~dur_us:(dt *. 1e6)
                 ~args:[ ("index", string_of_int i) ]
                 "pool.task");
          Metrics.incr tasks_counter;
          Metrics.observe task_hist dt;
          results.(i) <- r;
          Mutex.protect record_mutex (fun () ->
              incr done_count;
              (* in-flight = claimed but not yet recorded, capped at the
                 domain count (claims past [n] are refused loop exits) *)
              let claimed = min n (Atomic.get next) in
              let busy = max 0 (min jobs (claimed - !done_count)) in
              on_progress ~done_:!done_count ~alive:jobs ~busy);
          loop ()
        end
      in
      loop ()
    in
    let others = List.init (jobs - 1) (fun _ -> Domain.spawn worker) in
    (* the calling domain is the jobs-th worker, not an idle coordinator *)
    worker ();
    List.iter Domain.join others;
    results
  end
