module Ints = Hextime_prelude.Ints

let on = ref false
let enable () = on := true
let disable () = on := false
let enabled () = !on

let auto_enable () =
  match Sys.getenv_opt "HEXTIME_PROGRESS" with
  | Some "1" -> on := true
  | Some "0" -> on := false
  | _ -> on := (try Unix.isatty Unix.stderr with Unix.Unix_error _ -> false)

let interval_s = 0.5

let done_gauge = Metrics.gauge "sweep.points_done"
let total_gauge = Metrics.gauge "sweep.points_total"
let rate_gauge = Metrics.gauge "sweep.points_per_sec"
let eta_gauge = Metrics.gauge "sweep.eta_seconds"
let alive_gauge = Metrics.gauge "pool.workers_alive"
let busy_gauge = Metrics.gauge "pool.workers_busy"

type t = {
  label : string;
  total : int;
  started : float;
  mutable last_emit : float;
  mutable rendered : bool;  (* a status line is on screen *)
  mutable finished : bool;
}

let create ?(total = 0) ~label () =
  {
    label;
    total;
    started = Unix.gettimeofday ();
    last_emit = 0.0;
    rendered = false;
    finished = false;
  }

let publish t ~done_ ~alive ~busy ~rate ~eta =
  Metrics.set done_gauge (float_of_int done_);
  Metrics.set total_gauge (float_of_int t.total);
  Metrics.set rate_gauge rate;
  Metrics.set eta_gauge eta;
  Metrics.set alive_gauge (float_of_int alive);
  Metrics.set busy_gauge (float_of_int busy);
  if Trace.enabled () then
    Trace.instant ~cat:"hexwatch"
      ~args:
        [
          ("label", t.label);
          ("done", string_of_int done_);
          ("total", string_of_int t.total);
          ("points_per_sec", Printf.sprintf "%.1f" rate);
        ]
      "hexwatch.heartbeat"

let render t ~done_ ~alive ~busy ~rate ~eta =
  let eta_text =
    if eta <= 0.0 || not (Float.is_finite eta) then ""
    else if eta >= 3600.0 then Printf.sprintf ", eta %.1fh" (eta /. 3600.0)
    else if eta >= 60.0 then Printf.sprintf ", eta %.0fm" (eta /. 60.0)
    else Printf.sprintf ", eta %.0fs" eta
  in
  (* total = 0 means "unknown": render a bare count, never a n/0 percent *)
  let counts =
    if t.total > 0 then
      Printf.sprintf "%d/%d (%d%%)" done_ t.total
        (Ints.clamp ~lo:0 ~hi:100 (done_ * 100 / t.total))
    else string_of_int done_
  in
  let workers =
    if alive > 0 then Printf.sprintf ", workers %d/%d busy" busy alive else ""
  in
  (* \r + trailing pad: a shorter line fully overwrites a longer one *)
  Printf.eprintf "\r%s: %s points, %.0f/s%s%s    %!" t.label counts rate
    eta_text workers;
  t.rendered <- true

let tick ?(workers_alive = 0) ?(workers_busy = 0) t ~done_ =
  if not t.finished then begin
    let now = Unix.gettimeofday () in
    let last = done_ = t.total && t.total > 0 in
    if now -. t.last_emit >= interval_s || last then begin
      t.last_emit <- now;
      (* The first tick can land within the clock's granularity of [create]
         (a tiny sweep finishes instantly), making elapsed zero or nearly so:
         done / elapsed then publishes an infinite or garbage
         sweep.points_per_sec gauge and a nonsense ETA.  Until a millisecond
         has passed there is no rate worth reporting — publish 0 and let the
         next throttled tick carry the real figure.  A clock step backwards
         (negative elapsed) is clamped the same way. *)
      let elapsed = now -. t.started in
      let rate =
        if elapsed < 1e-3 then 0.0
        else
          let r = float_of_int done_ /. elapsed in
          if Float.is_finite r then r else 0.0
      in
      let eta =
        if t.total > 0 && rate > 0.0 then
          let e = float_of_int (t.total - done_) /. rate in
          if Float.is_finite e then Float.max 0.0 e else 0.0
        else 0.0
      in
      publish t ~done_ ~alive:workers_alive ~busy:workers_busy ~rate ~eta;
      if !on then
        render t ~done_ ~alive:workers_alive ~busy:workers_busy ~rate ~eta
    end
  end

let finish t =
  if not t.finished then begin
    t.finished <- true;
    if t.rendered then Printf.eprintf "\r%s\r%!" (String.make 79 ' ')
  end
