module Arch = Hextime_gpu.Arch
module Stencil = Hextime_stencil.Stencil
module Problem = Hextime_stencil.Problem
module Parsweep = Hextime_parsweep.Parsweep
module Metrics = Hextime_obs.Metrics
module Openmetrics = Hextime_obs.Openmetrics
module Slo = Hextime_obs.Slo
module Ledger = Hextime_obs.Ledger
module Attribution = Hextime_obs.Attribution
module Alert = Hextime_obs.Alert
module Explain = Hextime_harness.Explain
module Microbench = Hextime_harness.Microbench
module Model = Hextime_core.Model

(* Serving telemetry.  The latency histograms power the p50/p90/p99
   estimates Metrics.quantile exposes in snapshots — the bench additionally
   measures warm latency exactly, client-side. *)
let requests_counter = Metrics.counter "serve.requests"
let warm_counter = Metrics.counter "serve.warm_hits"
let cold_counter = Metrics.counter "serve.cold_misses"
let error_counter = Metrics.counter "serve.errors"
let warm_hist = Metrics.histogram "serve.warm_seconds"
let cold_hist = Metrics.histogram "serve.cold_seconds"

(* hexpulse: serving vitals and the drift monitor, all scrapeable. *)
let audits_counter = Metrics.counter "serve.audits"
let oob_counter = Metrics.counter "serve.audits_out_of_band"
let scrape_counter = Metrics.counter "serve.http_scrapes"
let uptime_gauge = Metrics.gauge "serve.uptime_s"
let entries_gauge = Metrics.gauge "serve.index_entries"
let inflight_gauge = Metrics.gauge "serve.requests_in_flight"
let warm_p50_gauge = Metrics.gauge "serve.warm_p50_us"
let warm_p99_gauge = Metrics.gauge "serve.warm_p99_us"
let drift_alarm_gauge = Metrics.gauge "serve.drift_alarm"
let inband_gauge = Metrics.gauge "serve.audit_inband_ratio"

(* Rolling window of audit verdicts backing the drift alarm: big enough to
   smooth over one unlucky sample at audit_rate=1, small enough that a
   genuinely drifted index trips the alarm within a few dozen asks. *)
let drift_window = 64

type summary = {
  requests : int;  (** ask requests answered (warm + cold + rejected) *)
  warm_hits : int;
  cold_misses : int;
  errors : int;
  audits : int;
  audits_out_of_band : int;
  drift_alarm : bool;
  scrapes : int;  (** HTTP [GET /metrics] requests served *)
}

type state = {
  index : Index.t;
  index_path : string option;
  exec : Parsweep.exec;
  t_start : float;
  slo : Slo.t;
  alog : Access_log.t option;
  slow_us : float;
  audit_rate : int;
  audit_cold : bool;
  drift_min_ratio : float;
  ledger_path : string option;
  mutable dirty : bool;
  mutable requests : int;
  mutable warm_hits : int;
  mutable cold_misses : int;
  mutable errors : int;
  mutable in_flight : int;
  mutable next_req : int;
  mutable audits : int;
  mutable audits_oob : int;
  mutable alarm : bool;
  mutable scrapes : int;
  (* drift verdict ring *)
  ring : bool array;
  mutable ring_len : int;
  mutable ring_pos : int;
}

let format_req_id n =
  let rec digits k m = if m < 10 then k else digits (k + 1) (m / 10) in
  let w = max 6 (digits 1 n) in
  let id = Bytes.make (w + 1) '0' in
  Bytes.unsafe_set id 0 'r';
  let rec fill i m =
    if m > 0 then begin
      Bytes.unsafe_set id i (Char.unsafe_chr (48 + (m mod 10)));
      fill (i - 1) (m / 10)
    end
  in
  fill w n;
  Bytes.unsafe_to_string id

let fresh_req_id st =
  st.next_req <- st.next_req + 1;
  format_req_id st.next_req

let vitals st ~now =
  [
    ("uptime_s", now -. st.t_start);
    ("index_entries", float_of_int (Index.size st.index));
    ("requests_in_flight", float_of_int st.in_flight);
  ]

(* Refresh the derived gauges, then snapshot.  The warm-latency quantile
   gauges are recomputed from the histogram at scrape time, so a scraped
   [serve_warm_p50_us] always equals [Metrics.quantile] over the same
   snapshot — the round-trip the test suite checks. *)
let refreshed_snapshot st ~now =
  let pre = Metrics.snapshot () in
  (match List.assoc_opt "serve.warm_seconds" pre.Metrics.snap_histograms with
  | Some hs when hs.Metrics.hs_count > 0 ->
      Metrics.set warm_p50_gauge (Metrics.quantile hs 0.5 *. 1e6);
      Metrics.set warm_p99_gauge (Metrics.quantile hs 0.99 *. 1e6)
  | _ -> ());
  Metrics.set uptime_gauge (now -. st.t_start);
  Metrics.set entries_gauge (float_of_int (Index.size st.index));
  Metrics.set inflight_gauge (float_of_int st.in_flight);
  Metrics.snapshot ()

(* Resolve the textual request against the preset tables.  This is also
   where the (memoized) micro-benchmarks for an unseen architecture are
   forced, via Advisor.request_key. *)
let resolve (arch_name : string) (stencil_name : string) space time =
  match Arch.find arch_name with
  | exception Not_found ->
      Error (Printf.sprintf "unknown architecture %S" arch_name)
  | arch -> (
      match Stencil.find stencil_name with
      | exception Not_found ->
          Error (Printf.sprintf "unknown stencil %S" stencil_name)
      | stencil -> (
          match Problem.make stencil ~space ~time with
          | exception Invalid_argument msg -> Error msg
          | problem -> Ok (arch, problem)))

(* Warm every (architecture, stencil) micro-benchmark memo the index
   mentions before accepting connections, so the first live request for an
   indexed context pays one hash lookup and not a micro-benchmark
   campaign.  Computing the request digest forces exactly the memos a
   lookup needs (Microbench.params and citer). *)
let warm_memos index =
  List.iter
    (fun (e : Index.entry) ->
      match
        resolve e.Index.e_arch e.Index.e_stencil e.Index.e_space e.Index.e_time
      with
      | Error _ -> ()
      | Ok (arch, problem) -> ignore (Advisor.request_key arch problem : string))
    (Index.entries index)

let persist st =
  match st.index_path with
  | Some path when st.dirty -> (
      match Index.save st.index ~path with
      | Ok () -> st.dirty <- false
      | Error msg -> Format.eprintf "hexserve: index save: %s@." msg)
  | _ -> ()

(* One queued cold request: who asked, for what, and when it arrived. *)
type pending = {
  p_fd : Unix.file_descr;
  p_req_id : string;
  p_arch : Arch.t;
  p_problem : Problem.t;
  p_key : string;
  p_t0 : float;
}

(* One queued drift audit: a served answer awaiting re-verification
   against the exhaustive arg-min. *)
type audit_task = {
  q_req_id : string;
  q_arch : Arch.t;
  q_problem : Problem.t;
  q_entry : Index.entry;
  q_source : Proto.source;
}

(* A client that hung up costs its reply, not the server: the EPIPE a
   write to it raises (SIGPIPE is ignored while serving) is dropped. *)
let send_reply fd reply =
  try Proto.write_frame fd (Proto.reply_to_json reply)
  with Unix.Unix_error _ | Invalid_argument _ -> ()

let access_log st ~req_id ~key ~source ~latency_us ?digest ?error ?attribution
    () =
  match st.alog with
  | None -> ()
  | Some log ->
      Access_log.log log ~ts:(Unix.gettimeofday ()) ~req_id ~key ~source
        ~latency_us ?digest ?error ?attribution ()

let answer_error st ?(req_id = "") ?(key = "") ?(t0 = nan) fd msg =
  st.errors <- st.errors + 1;
  Metrics.incr error_counter;
  let now = Unix.gettimeofday () in
  let latency_us = if Float.is_nan t0 then 0.0 else (now -. t0) *. 1e6 in
  Slo.observe st.slo ~now ~warm:false ~error:true
    ~latency_s:(latency_us /. 1e6);
  access_log st ~req_id ~key ~source:"error" ~latency_us ~error:msg ();
  send_reply fd (Proto.Error_reply msg)

(* Answer one ask that resolved to an index entry (warm hit or solved cold
   miss): bump the books, feed the SLO window, log the access — with the
   answer's Section-5 attribution attached when a cold solve blew the
   slow-query threshold — and reply with the entry's pre-rendered fields
   plus server vitals. *)
let answer_entry st fd ~req_id ~source ~(entry : Index.entry) ~fields ~t0 =
  let now = Unix.gettimeofday () in
  let dt = now -. t0 in
  (match source with
  | Proto.Warm ->
      st.warm_hits <- st.warm_hits + 1;
      Metrics.incr warm_counter;
      Metrics.observe warm_hist dt
  | Proto.Cold ->
      st.cold_misses <- st.cold_misses + 1;
      Metrics.incr cold_counter;
      Metrics.observe cold_hist dt);
  Slo.observe st.slo ~now ~warm:(source = Proto.Warm) ~error:false
    ~latency_s:dt;
  let latency_us = dt *. 1e6 in
  let attribution =
    if source = Proto.Cold && latency_us > st.slow_us then
      Some (Attribution.components_to_json entry.Index.e_components)
    else None
  in
  access_log st ~req_id ~key:entry.Index.e_key
    ~source:(Proto.source_to_string source)
    ~latency_us
    ~digest:(Hextime_tiling.Config.id entry.Index.e_config)
    ?attribution ();
  try
    Proto.write_answer fd
      { source; entry; latency_us; req_id; server = vitals st ~now }
      ~fields
  with Unix.Unix_error _ | Invalid_argument _ -> ()

(* Solve every queued cold miss as one batch through the Parsweep pool:
   concurrent misses from independent clients amortize pool startup, then
   write back into the in-memory index (and its on-disk snapshot) so the
   next ask is warm. *)
let solve_batch st (pending : pending list) =
  let tasks =
    List.fold_left
      (fun acc p -> if List.mem_assoc p.p_key acc then acc else (p.p_key, p) :: acc)
      [] pending
    |> List.rev_map snd
  in
  let outcomes, _stats =
    Parsweep.map ~label:"serve cold batch" st.exec
      ~f:(fun p -> Advisor.solve ~req_id:p.p_req_id p.p_arch p.p_problem)
      tasks
  in
  let failed = Hashtbl.create 4 in
  List.iter2
    (fun (p : pending) outcome ->
      match outcome with
      | Ok (Ok answer) ->
          Index.add st.index
            (Index.entry_of_answer p.p_arch p.p_problem answer);
          st.dirty <- true
      | Ok (Error msg) | Error msg -> Hashtbl.replace failed p.p_key msg)
    tasks outcomes;
  persist st;
  (* every queued key missed the index, so a key found there now is one
     this batch solved *)
  List.filter_map
    (fun (p : pending) ->
      st.requests <- st.requests + 1;
      Metrics.incr requests_counter;
      st.in_flight <- st.in_flight - 1;
      match Index.find_rendered st.index p.p_key with
      | Some (entry, fields) ->
          answer_entry st p.p_fd ~req_id:p.p_req_id ~source:Proto.Cold ~entry
            ~fields ~t0:p.p_t0;
          if st.audit_cold then
            Some
              {
                q_req_id = p.p_req_id;
                q_arch = p.p_arch;
                q_problem = p.p_problem;
                q_entry = entry;
                q_source = Proto.Cold;
              }
          else None
      | None ->
          answer_error st ~req_id:p.p_req_id ~key:p.p_key ~t0:p.p_t0 p.p_fd
            ("advisor: "
            ^ Option.value ~default:"batch lost the request"
                (Hashtbl.find_opt failed p.p_key));
          None)
    pending

(* --- drift monitor --------------------------------------------------------- *)

let record_verdict st in_band =
  st.ring.(st.ring_pos) <- in_band;
  st.ring_pos <- (st.ring_pos + 1) mod Array.length st.ring;
  if st.ring_len < Array.length st.ring then st.ring_len <- st.ring_len + 1;
  let inband = ref 0 in
  for i = 0 to st.ring_len - 1 do
    if st.ring.(i) then incr inband
  done;
  let ratio = float_of_int !inband /. float_of_int st.ring_len in
  Metrics.set inband_gauge ratio;
  let was_firing = st.alarm in
  st.alarm <- ratio < st.drift_min_ratio;
  Metrics.set drift_alarm_gauge (if st.alarm then 1.0 else 0.0);
  (* hexlens live gauges: the drift monitor is the online alert source *)
  Alert.live ~was_firing ~firing:st.alarm ()

let audit_ledger_record st (q : audit_task) (au : Advisor.audit) =
  match st.ledger_path with
  | None -> ()
  | Some path ->
      let b01 b = if b then 1.0 else 0.0 in
      (* attr.*/pred.* make the record diffable offline by `hextime
         explain` (and cross-checkable against a recomputation); an
         attribution failure degrades to a record without them *)
      let attr =
        let params = Microbench.params q.q_arch in
        let citer = Microbench.citer q.q_arch q.q_problem.Problem.stencil in
        match
          Model.attribution params ~citer q.q_problem
            q.q_entry.Index.e_config
        with
        | Ok (pr, comps) -> Explain.attribution_metrics pr comps
        | Error _ -> []
      in
      let entry =
        Ledger.make ~kind:"audit" ~code_version:Advisor.code_version
          ~labels:
            [
              ("req_id", q.q_req_id);
              ("arch", q.q_entry.Index.e_arch);
              ("stencil", q.q_entry.Index.e_stencil);
              ("space",
               String.concat "x"
                 (Array.to_list
                    (Array.map string_of_int q.q_problem.Problem.space)));
              ("time", string_of_int q.q_problem.Problem.time);
              ("key", q.q_entry.Index.e_key);
              ("source", Proto.source_to_string q.q_source);
              ("config", Hextime_tiling.Config.id q.q_entry.Index.e_config);
            ]
          ~metrics:
            ([
               ("exact_talg", au.Advisor.au_exact_talg);
               ("config_talg", au.Advisor.au_config_talg);
               ("served_talg", au.Advisor.au_served_talg);
               ("rel_err", au.Advisor.au_rel_err);
               ("in_band", b01 au.Advisor.au_in_band);
               ("argmin_match", b01 au.Advisor.au_argmin_match);
               ("feasible", float_of_int au.Advisor.au_feasible);
             ]
            @ attr)
          ()
      in
      (match Ledger.append ~path entry with
      | Ok () -> ()
      | Error msg -> Format.eprintf "hexserve: audit ledger: %s@." msg)

(* Re-verify a batch of served answers off the request path: each audit
   re-derives the exhaustive arg-min with the current model. *)
let run_audits st (queue : audit_task list) =
  match queue with
  | [] -> ()
  | queue ->
      let outcomes, _stats =
        Parsweep.map ~label:"serve audit" st.exec
          ~f:(fun q ->
            Advisor.audit q.q_arch q.q_problem
              ~config:q.q_entry.Index.e_config ~talg:q.q_entry.Index.e_talg)
          queue
      in
      List.iter2
        (fun (q : audit_task) outcome ->
          st.audits <- st.audits + 1;
          Metrics.incr audits_counter;
          match outcome with
          | Ok (Ok au) ->
              if not au.Advisor.au_in_band then begin
                st.audits_oob <- st.audits_oob + 1;
                Metrics.incr oob_counter
              end;
              record_verdict st au.Advisor.au_in_band;
              audit_ledger_record st q au
          | Ok (Error _) | Error _ ->
              (* an audit that cannot even enumerate the space is itself
                 evidence of drift *)
              st.audits_oob <- st.audits_oob + 1;
              Metrics.incr oob_counter;
              record_verdict st false)
        queue outcomes

(* --- plain-HTTP /metrics --------------------------------------------------- *)

let http_content_type =
  "application/openmetrics-text; version=1.0.0; charset=utf-8"

let http_respond fd ~status ~content_type body =
  let response =
    Printf.sprintf
      "HTTP/1.1 %s\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: \
       close\r\n\r\n%s"
      status content_type (String.length body) body
  in
  let payload = Bytes.unsafe_of_string response in
  let len = Bytes.length payload in
  let off = ref 0 in
  try
    while !off < len do
      off := !off + Unix.write fd payload !off (len - !off)
    done
  with Unix.Unix_error _ -> ()

(* One scrape, served synchronously: read one request buffer (a scraper
   sends its whole GET in one segment; a byte-dribbling client is cut off
   by the receive timeout), answer, close.  The serving loop stays
   single-threaded — a scrape costs one snapshot render. *)
let serve_http_client st fd =
  (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO 1.0
   with Unix.Unix_error _ | Invalid_argument _ -> ());
  let buf = Bytes.create 4096 in
  let n = try Unix.read fd buf 0 4096 with Unix.Unix_error _ -> 0 in
  let request = Bytes.sub_string buf 0 n in
  let first_line =
    match String.index_opt request '\r' with
    | Some i -> String.sub request 0 i
    | None -> (
        match String.index_opt request '\n' with
        | Some i -> String.sub request 0 i
        | None -> request)
  in
  (match String.split_on_char ' ' first_line with
  | "GET" :: "/metrics" :: _ ->
      st.scrapes <- st.scrapes + 1;
      Metrics.incr scrape_counter;
      let body =
        Openmetrics.render (refreshed_snapshot st ~now:(Unix.gettimeofday ()))
      in
      http_respond fd ~status:"200 OK" ~content_type:http_content_type body
  | "GET" :: _ :: _ ->
      http_respond fd ~status:"404 Not Found" ~content_type:"text/plain"
        "only /metrics lives here\n"
  | _ ->
      http_respond fd ~status:"400 Bad Request" ~content_type:"text/plain"
        "bad request\n");
  try Unix.close fd with Unix.Unix_error _ -> ()

let stats_json st ~now = Metrics.to_json (refreshed_snapshot st ~now)

(* A snapshot that does not load (damaged, or from another code version)
   is moved to [<path>.bad.<unix time>] before the server starts empty, so
   the first write-back cannot replace it.  If it cannot be moved, nothing
   is written back. *)
let load_index path =
  match Index.load ~path with
  | Ok idx -> (idx, Some path)
  | Error msg -> (
      let base = Printf.sprintf "%s.bad.%.0f" path (Unix.time ()) in
      let rec free i =
        let p = if i = 0 then base else Printf.sprintf "%s.%d" base i in
        if Sys.file_exists p then free (i + 1) else p
      in
      let aside = free 0 in
      match Sys.rename path aside with
      | () ->
          Format.eprintf
            "hexserve: %s — moved to %s, starting with an empty index@." msg
            aside;
          (Index.create (), Some path)
      | exception Sys_error e ->
          Format.eprintf
            "hexserve: %s — cannot move it aside (%s), starting with an \
             empty index and no write-back@."
            msg e;
          (Index.create (), None))

let run ?index_path ?(exec = Parsweep.serial) ?max_requests
    ?(on_ready = fun () -> ()) ?http_port ?on_http_port ?access_log_path
    ?(slow_us = infinity) ?slo ?(audit_rate = 0) ?(audit_cold = false)
    ?(drift_min_ratio = 0.99) ?ledger_path ~socket_path () =
  let t_start = Unix.gettimeofday () in
  let index, index_path =
    match index_path with
    | Some path when Sys.file_exists path -> load_index path
    | _ -> (Index.create (), index_path)
  in
  warm_memos index;
  let alog =
    match access_log_path with
    | None -> None
    | Some path -> (
        match Access_log.open_ ~path with
        | Ok log -> Some log
        | Error msg ->
            Format.eprintf "hexserve: access log: %s@." msg;
            None)
  in
  let st =
    {
      index;
      index_path;
      exec;
      t_start;
      slo = Slo.create ?spec:slo ~now:t_start ();
      alog;
      slow_us;
      audit_rate;
      audit_cold;
      drift_min_ratio;
      ledger_path;
      dirty = false;
      requests = 0;
      warm_hits = 0;
      cold_misses = 0;
      errors = 0;
      in_flight = 0;
      next_req = 0;
      audits = 0;
      audits_oob = 0;
      alarm = false;
      scrapes = 0;
      ring = Array.make drift_window true;
      ring_len = 0;
      ring_pos = 0;
    }
  in
  (* a clean start scrapes as alarm 0, not as an absent family *)
  Metrics.set drift_alarm_gauge 0.0;
  let listener = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.unlink socket_path with Unix.Unix_error _ -> ());
  Unix.bind listener (Unix.ADDR_UNIX socket_path);
  Unix.listen listener 64;
  let http_listener =
    match http_port with
    | None -> None
    | Some port ->
        let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.setsockopt sock Unix.SO_REUSEADDR true;
        Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
        Unix.listen sock 16;
        let actual =
          match Unix.getsockname sock with
          | Unix.ADDR_INET (_, p) -> p
          | _ -> port
        in
        (match on_http_port with Some f -> f actual | None -> ());
        Some sock
  in
  let clients = ref [] in
  let close_client fd =
    clients := List.filter (fun c -> c <> fd) !clients;
    try Unix.close fd with Unix.Unix_error _ -> ()
  in
  let running = ref true in
  (* Graceful shutdown: SIGINT/SIGTERM flip [running] and let the loop
     fall through to the normal cleanup path (persist the index, flush
     the access log, stamp a final ledger record, unlink the socket).
     The 1s select timeout bounds the latency even if the EINTR the
     signal causes is swallowed.  Handlers are restored on exit so
     embedding callers (tests, the bench) keep their own disposition;
     they are installed before [on_ready] so a caller who signals as soon
     as the socket is up cannot hit the default disposition. *)
  let stop_signal = ref None in
  let stop =
    Sys.Signal_handle
      (fun s ->
        stop_signal := Some s;
        running := false)
  in
  let install (s, behaviour) =
    match Sys.signal s behaviour with
    | prev -> Some (s, prev)
    | exception (Invalid_argument _ | Sys_error _) -> None
  in
  (* SIGPIPE is ignored so that a client that hangs up before its reply
     costs that reply (the write's EPIPE), not the process. *)
  let saved_handlers =
    List.filter_map install
      [
        (Sys.sigpipe, Sys.Signal_ignore);
        (Sys.sigint, stop);
        (Sys.sigterm, stop);
      ]
  in
  on_ready ();
  let budget_left () =
    match max_requests with None -> true | Some n -> st.requests < n
  in
  (* Counts every answered ask since the monitor started; audit_rate
     samples it so "every Nth served answer" is global, not per-client. *)
  let audit_clock = ref 0 in
  while !running && budget_left () do
    let watched =
      (listener :: Option.to_list http_listener) @ !clients
    in
    (* a finite timeout lets SLO windows close during idle periods *)
    match Unix.select watched [] [] 1.0 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | readable, _, _ ->
        let now = Unix.gettimeofday () in
        Slo.tick st.slo ~now;
        Option.iter (fun a -> Access_log.maybe_flush a ~now) st.alog;
        let cold_queue = ref [] in
        let audit_queue = ref [] in
        List.iter
          (fun fd ->
            if fd = listener then begin
              match Unix.accept listener with
              | client, _ -> clients := client :: !clients
              | exception Unix.Unix_error _ -> ()
            end
            else if Some fd = http_listener then begin
              match Unix.accept fd with
              | client, _ -> serve_http_client st client
              | exception Unix.Unix_error _ -> ()
            end
            else
              match Proto.read_frame fd with
              | exception Unix.Unix_error _ ->
                  (* ECONNRESET: the client closed with our reply unread *)
                  close_client fd
              | Ok None -> close_client fd
              | Error msg ->
                  answer_error st fd msg;
                  close_client fd
              | Ok (Some json) -> (
                  let t0 = Unix.gettimeofday () in
                  match Proto.request_of_json json with
                  | Error msg ->
                      st.requests <- st.requests + 1;
                      Metrics.incr requests_counter;
                      answer_error st ~req_id:(fresh_req_id st) ~t0 fd msg
                  | Ok Proto.Stats ->
                      send_reply fd
                        (Proto.Stats_reply
                           {
                             metrics = stats_json st ~now:t0;
                             server = vitals st ~now:t0;
                           })
                  | Ok Proto.Metrics ->
                      send_reply fd
                        (Proto.Metrics_reply
                           (Openmetrics.render
                              (refreshed_snapshot st ~now:t0)))
                  | Ok Proto.Shutdown ->
                      send_reply fd
                        (Proto.Stats_reply
                           {
                             metrics = stats_json st ~now:t0;
                             server = vitals st ~now:t0;
                           });
                      running := false
                  | Ok (Proto.Ask { arch; stencil; space; time }) -> (
                      let req_id = fresh_req_id st in
                      match resolve arch stencil space time with
                      | Error msg ->
                          st.requests <- st.requests + 1;
                          Metrics.incr requests_counter;
                          answer_error st ~req_id ~t0 fd msg
                      | Ok (arch, problem) -> (
                          st.in_flight <- st.in_flight + 1;
                          let key = Advisor.request_key arch problem in
                          match Index.find_rendered st.index key with
                          | Some (entry, fields) ->
                              st.requests <- st.requests + 1;
                              Metrics.incr requests_counter;
                              st.in_flight <- st.in_flight - 1;
                              answer_entry st fd ~req_id ~source:Proto.Warm
                                ~entry ~fields ~t0;
                              incr audit_clock;
                              if
                                st.audit_rate > 0
                                && !audit_clock mod st.audit_rate = 0
                              then
                                audit_queue :=
                                  {
                                    q_req_id = req_id;
                                    q_arch = arch;
                                    q_problem = problem;
                                    q_entry = entry;
                                    q_source = Proto.Warm;
                                  }
                                  :: !audit_queue
                          | None ->
                              cold_queue :=
                                {
                                  p_fd = fd;
                                  p_req_id = req_id;
                                  p_arch = arch;
                                  p_problem = problem;
                                  p_key = key;
                                  p_t0 = t0;
                                }
                                :: !cold_queue))))
          readable;
        let cold_audits =
          match List.rev !cold_queue with
          | [] -> []
          | pending -> solve_batch st pending
        in
        (* replies are out the door; drift verification is pure overhead
           the clients never wait for *)
        run_audits st (List.rev !audit_queue @ cold_audits)
  done;
  List.iter
    (fun (s, prev) ->
      try Sys.set_signal s prev with Invalid_argument _ | Sys_error _ -> ())
    saved_handlers;
  persist st;
  Option.iter
    (fun a -> Access_log.maybe_flush a ~now:(Unix.gettimeofday ()))
    st.alog;
  (* On a signal-driven exit, leave a provenance-stamped last word in the
     ledger: final vitals plus the full metrics snapshot, so a scraper
     that missed the process's end can still reconstruct it. *)
  (match (!stop_signal, st.ledger_path) with
  | Some s, Some path ->
      let now = Unix.gettimeofday () in
      let name =
        if s = Sys.sigint then "sigint"
        else if s = Sys.sigterm then "sigterm"
        else string_of_int s
      in
      let b01 b = if b then 1.0 else 0.0 in
      let entry =
        Ledger.make ~kind:"serve" ~code_version:Advisor.code_version
          ~labels:[ ("shutdown", name) ]
          ~metrics:
            [
              ("requests", float_of_int st.requests);
              ("warm_hits", float_of_int st.warm_hits);
              ("cold_misses", float_of_int st.cold_misses);
              ("errors", float_of_int st.errors);
              ("audits", float_of_int st.audits);
              ("audits_out_of_band", float_of_int st.audits_oob);
              ("drift_alarm", b01 st.alarm);
              ("uptime_s", now -. st.t_start);
            ]
          ~snapshot:(stats_json st ~now) ()
      in
      (match Ledger.append ~path entry with
      | Ok () -> ()
      | Error msg -> Format.eprintf "hexserve: shutdown ledger: %s@." msg)
  | _ -> ());
  Option.iter Access_log.close st.alog;
  List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) !clients;
  (try Unix.close listener with Unix.Unix_error _ -> ());
  Option.iter
    (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
    http_listener;
  (try Unix.unlink socket_path with Unix.Unix_error _ -> ());
  {
    requests = st.requests;
    warm_hits = st.warm_hits;
    cold_misses = st.cold_misses;
    errors = st.errors;
    audits = st.audits;
    audits_out_of_band = st.audits_oob;
    drift_alarm = st.alarm;
    scrapes = st.scrapes;
  }
