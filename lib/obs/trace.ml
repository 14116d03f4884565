module Minijson = Hextime_prelude.Minijson

type event = {
  ev_name : string;
  ev_cat : string;
  ev_ph : string;  (* "X" complete, "B"/"E" begin/end, "i" instant *)
  ev_ts_us : float;
  ev_dur_us : float;  (* meaningful for "X" only; 0 otherwise *)
  ev_pid : int;
  ev_tid : int;
  ev_args : (string * string) list;
}

(* Wall-clock epoch captured at module load: every domain's timestamps
   share one time base. *)
let epoch = Unix.gettimeofday ()
let now_us () = (Unix.gettimeofday () -. epoch) *. 1e6

let enabled_flag = ref false
let enable () = enabled_flag := true
let disable () = enabled_flag := false
let enabled () = !enabled_flag

(* Collected events, newest first.  The buffer is shared by every domain of
   the process (the domains-based sweep pool records spans concurrently), so
   all mutation goes through [buffer_mutex]; the tid column carries the
   recording domain so a trace lays domain workers out side by side. *)
let buffer : event list ref = ref []
let count = ref 0
let buffer_mutex = Mutex.create ()

let make ?(cat = "hextime") ?(args = []) ?(ph = "X") ?(dur_us = 0.0) ~ts_us
    name =
  {
    ev_name = name;
    ev_cat = cat;
    ev_ph = ph;
    ev_ts_us = ts_us;
    ev_dur_us = dur_us;
    ev_pid = Unix.getpid ();
    ev_tid = (Domain.self () :> int);
    ev_args = args;
  }

let emit ev =
  Mutex.protect buffer_mutex @@ fun () ->
  buffer := ev :: !buffer;
  incr count

let events () = Mutex.protect buffer_mutex (fun () -> List.rev !buffer)
let num_events () = Mutex.protect buffer_mutex (fun () -> !count)

let reset () =
  Mutex.protect buffer_mutex @@ fun () ->
  buffer := [];
  count := 0

let with_span ?cat ?args name f =
  if not !enabled_flag then f ()
  else begin
    let t0 = now_us () in
    let finish () =
      let t1 = now_us () in
      let args = match args with None -> [] | Some thunk -> thunk () in
      emit (make ?cat ~args ~ph:"X" ~dur_us:(t1 -. t0) ~ts_us:t0 name)
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

let instant ?cat ?(args = []) name =
  if !enabled_flag then
    emit (make ?cat ~args ~ph:"i" ~ts_us:(now_us ()) name)

(* --- export --------------------------------------------------------------- *)

let json_of_event ev =
  let base =
    [
      ("name", Minijson.Str ev.ev_name);
      ("cat", Minijson.Str ev.ev_cat);
      ("ph", Minijson.Str ev.ev_ph);
      ("ts", Minijson.Num ev.ev_ts_us);
      ("pid", Minijson.Num (float_of_int ev.ev_pid));
      ("tid", Minijson.Num (float_of_int ev.ev_tid));
    ]
  in
  let dur = if ev.ev_ph = "X" then [ ("dur", Minijson.Num ev.ev_dur_us) ] else [] in
  let args =
    match ev.ev_args with
    | [] -> []
    | kvs ->
        [ ("args", Minijson.Obj (List.map (fun (k, v) -> (k, Minijson.Str v)) kvs)) ]
  in
  Minijson.Obj (base @ dur @ args)

let to_json ?(extra = []) evs =
  Minijson.Obj
    (("traceEvents", Minijson.List (List.map json_of_event evs))
     :: ("displayTimeUnit", Minijson.Str "ms")
     :: extra)

let write_file ?extra path evs =
  Durable.replace ~path (Minijson.render (to_json ?extra evs) ^ "\n")
