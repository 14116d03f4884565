(* hexscope: the metrics registry, the span tracer, Minijson's non-finite
   rendering, and the cost-attribution producers (the analytical model and
   the simulator), whose component sums must rebuild the predicted totals. *)

module Obs = Hextime_obs
module Metrics = Obs.Metrics
module Trace = Obs.Trace
module Attribution = Obs.Attribution
module Minijson = Hextime_prelude.Minijson
module Gpu = Hextime_gpu
module S = Hextime_stencil.Stencil
module P = Hextime_stencil.Problem
module Config = Hextime_tiling.Config
module Lower = Hextime_tiling.Lower
module Model = Hextime_core.Model
module H = Hextime_harness
module Parsweep = Hextime_parsweep.Parsweep

(* tracing is process-global state; every test that enables it must leave
   it the way it found it, or an unrelated test's spans leak into ours *)
let with_tracing f =
  Trace.enable ();
  Fun.protect ~finally:(fun () -> Trace.disable ()) f

(* --- Metrics --------------------------------------------------------------- *)

let test_counter_gauge_histogram () =
  let c = Metrics.counter "test.obs.counter" in
  let base = Metrics.value c in
  Metrics.incr c;
  Metrics.incr c ~by:41;
  Alcotest.(check int) "counter accumulates" (base + 42) (Metrics.value c);
  Alcotest.(check bool) "handles are interned" true
    (Metrics.value (Metrics.counter "test.obs.counter") = base + 42);
  Metrics.set (Metrics.gauge "test.obs.gauge") 2.5;
  let h = Metrics.histogram "test.obs.hist" in
  List.iter (Metrics.observe h) [ 0.5; 1.5; 3.0; 3.9 ];
  let snap = Metrics.snapshot () in
  Alcotest.(check (option int)) "counter in snapshot" (Some (base + 42))
    (Metrics.find_counter snap "test.obs.counter");
  Alcotest.(check (option (float 1e-12))) "gauge in snapshot" (Some 2.5)
    (List.assoc_opt "test.obs.gauge" snap.Metrics.snap_gauges);
  match List.assoc_opt "test.obs.hist" snap.Metrics.snap_histograms with
  | None -> Alcotest.fail "histogram missing from snapshot"
  | Some hs ->
      Alcotest.(check int) "histogram count" 4 hs.Metrics.hs_count;
      Alcotest.(check (float 1e-12)) "histogram sum" 8.9 hs.Metrics.hs_sum;
      Alcotest.(check (float 1e-12)) "histogram min" 0.5 hs.Metrics.hs_min;
      Alcotest.(check (float 1e-12)) "histogram max" 3.9 hs.Metrics.hs_max;
      (* 1.5 lands in [1,2); 3.0 and 3.9 share [2,4) *)
      Alcotest.(check int) "log2 bucketing groups same-magnitude values" 3
        (List.length hs.Metrics.hs_buckets);
      Alcotest.(check int) "largest bucket holds two" 2
        (List.fold_left (fun acc (_, n) -> max acc n) 0 hs.Metrics.hs_buckets)

(* --- Trace ----------------------------------------------------------------- *)

let test_trace_gating () =
  Alcotest.(check bool) "tracing starts disabled" false (Trace.enabled ());
  let before = Trace.num_events () in
  let forced = ref false in
  let r =
    Trace.with_span "test.obs.disabled"
      ~args:(fun () ->
        forced := true;
        [])
      (fun () -> 17)
  in
  Alcotest.(check int) "body still runs" 17 r;
  Alcotest.(check int) "no event recorded when disabled" before
    (Trace.num_events ());
  Alcotest.(check bool) "args thunk not forced when disabled" false !forced

let test_trace_records_and_exports () =
  with_tracing @@ fun () ->
  Trace.reset ();
  let r =
    Trace.with_span "test.obs.span" ~cat:"test"
      ~args:(fun () -> [ ("answer", "42") ])
      (fun () -> 42)
  in
  Alcotest.(check int) "body result" 42 r;
  Trace.instant "test.obs.instant";
  (match Trace.events () with
  | [ span; inst ] ->
      Alcotest.(check string) "span name" "test.obs.span" span.Trace.ev_name;
      Alcotest.(check string) "span phase" "X" span.Trace.ev_ph;
      Alcotest.(check bool) "span has a duration" true
        (span.Trace.ev_dur_us >= 0.0);
      Alcotest.(check int) "span pid is this process" (Unix.getpid ())
        span.Trace.ev_pid;
      Alcotest.(check string) "instant phase" "i" inst.Trace.ev_ph
  | evs -> Alcotest.fail (Printf.sprintf "expected 2 events, got %d"
                            (List.length evs)));
  (* export -> parse: the Chrome trace shape survives a round-trip *)
  let rendered =
    Minijson.render
      (Trace.to_json ~extra:[ ("metrics", Metrics.to_json Metrics.empty) ]
         (Trace.events ()))
  in
  match Minijson.parse rendered with
  | Error e -> Alcotest.fail ("trace JSON does not re-parse: " ^ e)
  | Ok json -> (
      (match Minijson.member "traceEvents" json with
      | Some (Minijson.List evs) ->
          Alcotest.(check int) "both events exported" 2 (List.length evs);
          Alcotest.(check (list (option string)))
            "event names survive the round-trip"
            [ Some "test.obs.span"; Some "test.obs.instant" ]
            (List.map
               (fun ev ->
                 Option.bind (Minijson.member "name" ev) Minijson.string)
               evs);
          List.iter
            (fun ev ->
              Alcotest.(check bool) "every event carries name/ph/ts/pid" true
                (List.for_all
                   (fun k -> Minijson.member k ev <> None)
                   [ "name"; "ph"; "ts"; "pid" ]))
            evs
      | _ -> Alcotest.fail "no traceEvents array");
      match Minijson.member "metrics" json with
      | Some (Minijson.Obj _) -> Trace.reset ()
      | _ -> Alcotest.fail "extra top-level member lost")

(* --- Minijson: non-finite floats and round-trips --------------------------- *)

let test_minijson_nonfinite () =
  let render v = String.trim (Minijson.render v) in
  Alcotest.(check string) "nan" "\"NaN\"" (render (Minijson.Num Float.nan));
  Alcotest.(check string) "+inf" "\"Infinity\""
    (render (Minijson.Num Float.infinity));
  Alcotest.(check string) "-inf" "\"-Infinity\""
    (render (Minijson.Num Float.neg_infinity));
  (* deterministic: embedded in a payload, rendering is parseable JSON *)
  let payload =
    Minijson.Obj
      [ ("ok", Minijson.Num 1.5); ("bad", Minijson.Num (0.0 /. 0.0)) ]
  in
  match Minijson.parse (Minijson.render payload) with
  | Error e -> Alcotest.fail ("non-finite payload does not re-parse: " ^ e)
  | Ok (Minijson.Obj fields) ->
      Alcotest.(check bool) "finite member survives" true
        (List.assoc_opt "ok" fields = Some (Minijson.Num 1.5));
      (* the documented asymmetry: non-finites come back as strings *)
      Alcotest.(check bool) "non-finite member comes back as a string" true
        (List.assoc_opt "bad" fields = Some (Minijson.Str "NaN"))
  | Ok _ -> Alcotest.fail "payload shape lost"

let test_minijson_roundtrip_nested_large () =
  let rec eq a b =
    match (a, b) with
    | Minijson.Num x, Minijson.Num y -> x = y
    | Minijson.List xs, Minijson.List ys ->
        List.length xs = List.length ys && List.for_all2 eq xs ys
    | Minijson.Obj xs, Minijson.Obj ys ->
        List.length xs = List.length ys
        && List.for_all2
             (fun (k1, v1) (k2, v2) -> k1 = k2 && eq v1 v2)
             xs ys
    | x, y -> x = y
  in
  let leaf i =
    Minijson.Obj
      [
        ("i", Minijson.Num (float_of_int i));
        ("x", Minijson.Num (1.0 /. float_of_int (i + 3)));
        ("s", Minijson.Str (Printf.sprintf "entry \"%d\"\nwith\tescapes" i));
        ("b", if i mod 2 = 0 then Minijson.Bool true else Minijson.Null);
      ]
  in
  let nested =
    (* ~1000 leaves under five levels of wrapping: exercises the printer's
       and parser's recursion and float round-tripping together *)
    let rec wrap d v =
      if d = 0 then v
      else wrap (d - 1) (Minijson.Obj [ (Printf.sprintf "level%d" d, v) ])
    in
    wrap 5 (Minijson.List (List.init 1000 leaf))
  in
  match Minijson.parse (Minijson.render nested) with
  | Error e -> Alcotest.fail ("large payload does not re-parse: " ^ e)
  | Ok back ->
      Alcotest.(check bool) "structurally identical after round-trip" true
        (eq nested back)

(* --- Attribution: the model -------------------------------------------------- *)

let heat2d_problem = P.make S.heat2d ~space:[| 2048; 2048 |] ~time:512

let test_model_attribution_sums () =
  let params = H.Microbench.params Gpu.Arch.gtx980 in
  let citer = H.Microbench.citer Gpu.Arch.gtx980 S.heat2d in
  let configs =
    [
      Config.make_exn ~t_t:16 ~t_s:[| 16; 64 |] ~threads:[| 256 |];
      Config.make_exn ~t_t:2 ~t_s:[| 4; 32 |] ~threads:[| 32 |];
      Config.make_exn ~t_t:10 ~t_s:[| 30; 96 |] ~threads:[| 128 |];
      Config.make_exn ~t_t:4 ~t_s:[| 8; 64 |] ~threads:[| 64 |];
    ]
  in
  List.iter
    (fun variant ->
      List.iter
        (fun cfg ->
          match Model.attribution ~variant params ~citer heat2d_problem cfg with
          | Error msg -> Alcotest.fail ("attribution rejected config: " ^ msg)
          | Ok (pr, comps) ->
              let sum = Attribution.total comps in
              let rel = Float.abs (sum -. pr.Model.talg) /. pr.Model.talg in
              if rel > 1e-9 then
                Alcotest.fail
                  (Printf.sprintf
                     "components sum %.17g but talg %.17g (rel %.3e) for %s"
                     sum pr.Model.talg rel (Config.id cfg));
              Alcotest.(check bool) "no shared-memory time term" true
                (comps.Attribution.shared_mem = 0.0);
              Alcotest.(check bool) "launch term is positive" true
                (comps.Attribution.launch > 0.0))
        configs)
    [ Model.Refined; Model.Paper_verbatim ]

let test_model_attribution_matches_predict () =
  let params = H.Microbench.params Gpu.Arch.gtx980 in
  let citer = H.Microbench.citer Gpu.Arch.gtx980 S.heat2d in
  let cfg = Config.make_exn ~t_t:16 ~t_s:[| 16; 64 |] ~threads:[| 256 |] in
  match
    ( Model.predict params ~citer heat2d_problem cfg,
      Model.attribution params ~citer heat2d_problem cfg )
  with
  | Ok pr, Ok (pr', _) ->
      Alcotest.(check bool) "attribution reuses the exact prediction" true
        (pr = pr')
  | Error e, _ | _, Error e -> Alcotest.fail e

(* --- Attribution: the simulator ---------------------------------------------- *)

let test_simulator_attribution_sums () =
  let cfg = Config.make_exn ~t_t:16 ~t_s:[| 16; 64 |] ~threads:[| 256 |] in
  (* the 512x512 instance ends each kernel with a round of one block per
     SM, which prices serially although four blocks could be resident *)
  List.iter
    (fun problem ->
      match Lower.compile problem cfg with
      | Error e -> Alcotest.fail ("compile: " ^ e)
      | Ok compiled -> (
          match
            Gpu.Simulator.price_sequence Gpu.Arch.gtx980
              (Lower.kernel_sequence compiled)
          with
          | Error e -> Alcotest.fail ("price: " ^ e)
          | Ok priced ->
              Alcotest.(check bool) "both kernel families priced" true
                (List.length priced = 2);
              List.iter
                (fun ((p : Gpu.Simulator.priced), _count) ->
                  List.iter
                    (fun salt ->
                      let t =
                        Gpu.Simulator.priced_time ~salt Gpu.Arch.gtx980 p
                      in
                      let comps =
                        Gpu.Simulator.attribute_priced ~salt Gpu.Arch.gtx980 p
                      in
                      let sum = Attribution.total comps in
                      let rel = Float.abs (sum -. t) /. t in
                      if rel > 1e-9 then
                        Alcotest.fail
                          (Printf.sprintf
                             "salt %d: components sum %.17g but priced_time \
                              %.17g (rel %.3e)"
                             salt sum t rel))
                    [ 0; 1; 2; 3; 4 ];
                  (* jitter off: the jitter component must vanish exactly *)
                  let plain =
                    Gpu.Simulator.attribute_priced ~jitter:false ~salt:0
                      Gpu.Arch.gtx980 p
                  in
                  Alcotest.(check (float 0.0)) "no jitter term when disabled"
                    0.0 plain.Attribution.jitter)
                priced))
    [ heat2d_problem; P.make S.heat2d ~space:[| 512; 512 |] ~time:64 ]

let test_attribution_accumulator () =
  let acc = Attribution.create () in
  let c v = { Attribution.zero with Attribution.compute = v } in
  Attribution.record acc "small" (c 1.0);
  Attribution.record acc "big" (c 5.0);
  Attribution.record acc "medium" (c 2.0);
  Alcotest.(check (float 1e-12)) "totals add" 8.0
    (Attribution.total (Attribution.totals acc));
  (match Attribution.top_k acc 2 with
  | [ (l1, _); (l2, _) ] ->
      Alcotest.(check string) "largest first" "big" l1;
      Alcotest.(check string) "then next" "medium" l2
  | _ -> Alcotest.fail "top_k 2 should keep two entries");
  Alcotest.(check int) "entries keep insertion order" 3
    (List.length (Attribution.entries acc))

(* --- provably free: sweep output is identical with tracing on --------------- *)

let test_sweep_identical_under_tracing () =
  let experiment =
    {
      H.Experiments.arch = Gpu.Arch.gtx980;
      problem = P.make S.heat2d ~space:[| 512; 512 |] ~time:128;
    }
  in
  let csv_of sweep = H.Export.sweep_csv sweep.H.Sweep.points in
  let plain = csv_of (H.Sweep.baseline ~limit:40 experiment) in
  let traced =
    with_tracing (fun () -> csv_of (H.Sweep.baseline ~limit:40 experiment))
  in
  Trace.reset ();
  Alcotest.(check string) "sweep CSV byte-identical with tracing enabled"
    plain traced

(* --- Ledger (hexwatch) ------------------------------------------------------ *)

module Ledger = Obs.Ledger

let mk_entry ?(kind = "validate") ?(labels = []) ?(metrics = []) ?(groups = [])
    ?snapshot () =
  Ledger.make ~labels ~metrics ~groups ?snapshot ~kind ~code_version:"test-v1"
    ()

let with_ledger_file f =
  let path = Filename.temp_file "hexwatch" ".jsonl" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () -> f path

let append_exn path e =
  match Ledger.append ~path e with
  | Ok () -> ()
  | Error msg -> Alcotest.fail ("append: " ^ msg)

let load_exn path =
  match Ledger.load ~path with
  | Ok l -> l
  | Error msg -> Alcotest.fail ("load: " ^ msg)

let test_ledger_roundtrip () =
  with_ledger_file @@ fun path ->
  let e1 =
    mk_entry ~kind:"validate"
      ~labels:[ ("arch", "gtx980"); ("stencil", "heat2d") ]
      ~metrics:[ ("rmse_top", 0.08375); ("points_per_sec", 61234.5625) ]
      ~groups:[ ("gtx980/heat2d", [ ("rmse_all", 0.551); ("points", 850.0) ]) ]
      ~snapshot:(Minijson.Obj [ ("counters", Minijson.Obj []) ])
      ()
  in
  let e2 =
    mk_entry ~kind:"bench"
      ~metrics:[ ("cold_sweep_points_per_sec", 152345.0625) ]
      ()
  in
  append_exn path e1;
  append_exn path e2;
  let l = load_exn path in
  Alcotest.(check int) "no corrupt lines" 0 l.Ledger.corrupt_lines;
  Alcotest.(check int) "no unknown-schema records" 0 l.Ledger.unknown_schema;
  match l.Ledger.entries with
  | [ r1; r2 ] ->
      Alcotest.(check string) "kind" "validate" r1.Ledger.kind;
      Alcotest.(check string) "code version" "test-v1" r1.Ledger.code_version;
      Alcotest.(check (list (pair string string)))
        "labels" e1.Ledger.labels r1.Ledger.labels;
      (* %.17g rendering: floats survive the file bit-exactly *)
      Alcotest.(check (option (float 0.0)))
        "metric bit-exact" (Some 0.08375)
        (Ledger.metric r1 "rmse_top");
      Alcotest.(check (option (float 0.0)))
        "group metric bit-exact" (Some 0.551)
        (Ledger.group_metric r1 ~group:"gtx980/heat2d" "rmse_all");
      Alcotest.(check bool) "snapshot survives" true (r1.Ledger.snapshot <> None);
      Alcotest.(check (option (float 0.0)))
        "second entry metric" (Some 152345.0625)
        (Ledger.metric r2 "cold_sweep_points_per_sec");
      Alcotest.(check bool) "timestamps non-decreasing" true
        (r2.Ledger.time_unix >= r1.Ledger.time_unix)
  | es -> Alcotest.failf "expected 2 entries, got %d" (List.length es)

let test_ledger_corrupt_tolerance () =
  with_ledger_file @@ fun path ->
  append_exn path (mk_entry ());
  (* garbage and a non-ledger JSON object in the middle *)
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
  output_string oc "not json at all\n";
  output_string oc "{\"schema\":\"something-else\"}\n";
  close_out oc;
  append_exn path (mk_entry ~kind:"bench" ());
  (* a truncated trailing line: the crash-mid-append case *)
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
  output_string oc "{\"schema\":\"hexwatch-ledger\",\"version\":1,\"kind\":\"tr";
  close_out oc;
  let l = load_exn path in
  Alcotest.(check (list string))
    "both good entries survive in order" [ "validate"; "bench" ]
    (List.map (fun (e : Ledger.entry) -> e.Ledger.kind) l.Ledger.entries);
  Alcotest.(check int) "corrupt lines counted" 3 l.Ledger.corrupt_lines;
  Alcotest.(check int) "no unknown-schema records" 0 l.Ledger.unknown_schema

let test_ledger_unknown_schema () =
  with_ledger_file @@ fun path ->
  append_exn path (mk_entry ());
  (* a record from a future schema: well-formed, skipped, counted *)
  append_exn path { (mk_entry ~kind:"campaign" ()) with Ledger.schema = 99 };
  append_exn path (mk_entry ~kind:"bench" ());
  let l = load_exn path in
  Alcotest.(check (list string))
    "current-schema entries kept" [ "validate"; "bench" ]
    (List.map (fun (e : Ledger.entry) -> e.Ledger.kind) l.Ledger.entries);
  Alcotest.(check int) "unknown schema counted" 1 l.Ledger.unknown_schema;
  Alcotest.(check int) "not corrupt" 0 l.Ledger.corrupt_lines

let test_ledger_filter_latest () =
  let es =
    [
      mk_entry ~kind:"validate" ~labels:[ ("arch", "gtx980") ] ();
      mk_entry ~kind:"bench" ();
      mk_entry ~kind:"validate" ~labels:[ ("arch", "titanx") ] ();
      mk_entry ~kind:"tune" ~labels:[ ("arch", "gtx980") ] ();
    ]
  in
  Alcotest.(check int)
    "filter by kind" 2
    (List.length (Ledger.filter ~kind:"validate" es));
  Alcotest.(check int)
    "filter by label" 2
    (List.length (Ledger.filter ~label:("arch", "gtx980") es));
  Alcotest.(check (list string))
    "filter by kind and label" [ "validate" ]
    (List.map
       (fun (e : Ledger.entry) -> e.Ledger.kind)
       (Ledger.filter ~kind:"validate" ~label:("arch", "gtx980") es));
  Alcotest.(check (list string))
    "latest keeps tail in order" [ "validate"; "tune" ]
    (List.map
       (fun (e : Ledger.entry) -> e.Ledger.kind)
       (Ledger.latest 2 es));
  Alcotest.(check int) "latest larger than list" 4
    (List.length (Ledger.latest 10 es))

(* --- heartbeats are output-neutral ----------------------------------------- *)

let test_sweep_identical_with_progress () =
  let experiment =
    {
      H.Experiments.arch = Gpu.Arch.gtx980;
      problem = P.make S.heat2d ~space:[| 512; 512 |] ~time:128;
    }
  in
  let csv_of sweep = H.Export.sweep_csv sweep.H.Sweep.points in
  let was_enabled = Obs.Progress.enabled () in
  Obs.Progress.disable ();
  let plain = csv_of (H.Sweep.baseline ~limit:40 experiment) in
  let with_progress =
    Obs.Progress.enable ();
    Fun.protect
      ~finally:(fun () ->
        if not was_enabled then Obs.Progress.disable ())
      (fun () -> csv_of (H.Sweep.baseline ~limit:40 experiment))
  in
  prerr_newline ();
  Alcotest.(check string) "sweep CSV byte-identical with heartbeats enabled"
    plain with_progress;
  (* the heartbeat published its gauges even though rendering is throttled *)
  let snap = Metrics.snapshot () in
  let gauge name = List.assoc_opt name snap.Metrics.snap_gauges in
  Alcotest.(check (option (float 0.0)))
    "points_done gauge" (Some 40.0)
    (gauge "sweep.points_done");
  Alcotest.(check (option (float 0.0)))
    "points_total gauge" (Some 40.0)
    (gauge "sweep.points_total")

(* the first-tick bugfix: a tick landing within the clock's granularity of
   the sweep start used to divide by a near-zero elapsed time and publish an
   infinite sweep.points_per_sec; and an unknown total (0) used to render
   [done * 100 / 0].  Both must stay finite / guarded. *)
let test_progress_first_tick_is_finite () =
  let was_enabled = Obs.Progress.enabled () in
  Obs.Progress.disable ();
  let t = Obs.Progress.create ~total:10 ~label:"hexwatch-test" () in
  Obs.Progress.tick t ~done_:5;
  let snap = Metrics.snapshot () in
  let gauge name = List.assoc_opt name snap.Metrics.snap_gauges in
  (match gauge "sweep.points_per_sec" with
  | None -> Alcotest.fail "rate gauge missing"
  | Some r ->
      Alcotest.(check bool) "rate finite" true (Float.is_finite r);
      Alcotest.(check (float 0.0)) "instant tick reports zero rate" 0.0 r);
  (match gauge "sweep.eta_seconds" with
  | None -> Alcotest.fail "eta gauge missing"
  | Some e ->
      Alcotest.(check bool) "eta finite and non-negative" true
        (Float.is_finite e && e >= 0.0));
  Obs.Progress.finish t;
  (* unknown total, rendering on: the bare-count path must not divide by
     [total = 0] *)
  Obs.Progress.enable ();
  Fun.protect
    ~finally:(fun () -> if not was_enabled then Obs.Progress.disable ())
    (fun () ->
      let s = Obs.Progress.create ~label:"hexwatch-test-unknown" () in
      Obs.Progress.tick s ~done_:3;
      Obs.Progress.finish s;
      prerr_newline ())

(* --- quantiles over log2 histograms ---------------------------------------- *)

let test_histogram_quantiles () =
  let h = Metrics.histogram "test.obs.quantiles" in
  (* 100 observations near 1.5 and one far outlier: the median must stay
     in the dense bucket and only the extreme ranks may reach the tail *)
  for _ = 1 to 100 do
    Metrics.observe h 1.5
  done;
  Metrics.observe h 1000.0;
  let snap = Metrics.snapshot () in
  match List.assoc_opt "test.obs.quantiles" snap.Metrics.snap_histograms with
  | None -> Alcotest.fail "histogram missing from snapshot"
  | Some hs ->
      let q p = Metrics.quantile hs p in
      Alcotest.(check (float 0.0)) "q=0 is exactly the min" 1.5 (q 0.0);
      Alcotest.(check (float 0.0)) "q=1 is exactly the max" 1000.0 (q 1.0);
      (* 1.5 lands in bucket [1,2): the estimate must not leave it *)
      Alcotest.(check bool) "p50 stays in the dense bucket" true
        (q 0.5 >= 1.5 && q 0.5 < 2.0);
      (* rank 100 of 101 tops out the dense bucket: the estimate may reach
         its upper edge but must not jump to the outlier's magnitude *)
      Alcotest.(check bool) "p99 rank still precedes the outlier" true
        (q 0.99 <= 2.0);
      Alcotest.(check bool) "quantiles are monotone" true
        (q 0.5 <= q 0.9 && q 0.9 <= q 0.99 && q 0.99 <= q 1.0);
      (* single observation: every quantile collapses to it *)
      let one =
        {
          Metrics.hs_count = 1;
          hs_sum = 3.0;
          hs_min = 3.0;
          hs_max = 3.0;
          hs_buckets = [ (66, 1) ];
        }
      in
      Alcotest.(check (float 0.0)) "singleton p50" 3.0
        (Metrics.quantile one 0.5);
      (* degenerate inputs answer NaN — consistently, never a crash and
         never an infinity leaked from the min/max sentinels *)
      let empty =
        {
          Metrics.hs_count = 0;
          hs_sum = 0.0;
          hs_min = 0.0;
          hs_max = 0.0;
          hs_buckets = [];
        }
      in
      Alcotest.(check bool) "empty histogram is NaN" true
        (Float.is_nan (Metrics.quantile empty 0.5));
      Alcotest.(check bool) "empty histogram q=0 is NaN too" true
        (Float.is_nan (Metrics.quantile empty 0.0));
      Alcotest.(check bool) "q out of range is NaN" true
        (Float.is_nan (Metrics.quantile hs 1.5));
      Alcotest.(check bool) "q NaN is NaN" true
        (Float.is_nan (Metrics.quantile hs Float.nan));
      (* and the JSON rendering of an empty histogram's quantiles is the
         deterministic string NaN, not a crash or a bare token *)
      let json = Minijson.render_compact (Minijson.Num (Metrics.quantile empty 0.5)) in
      Alcotest.(check string) "NaN renders as a string" "\"NaN\"" json

let test_quantiles_in_snapshot_json () =
  let h = Metrics.histogram "test.obs.quantjson" in
  List.iter (Metrics.observe h) [ 0.001; 0.002; 0.004 ];
  let json = Metrics.to_json (Metrics.snapshot ()) in
  let hist_json =
    Option.bind (Minijson.member "histograms" json)
      (Minijson.member "test.obs.quantjson")
  in
  match hist_json with
  | None -> Alcotest.fail "histogram missing from metrics JSON"
  | Some hj ->
      List.iter
        (fun (label, _) ->
          match Option.bind (Minijson.member label hj) Minijson.number with
          | Some v ->
              Alcotest.(check bool)
                (label ^ " within [min, max]")
                true
                (v >= 0.001 && v <= 0.004)
          | None -> Alcotest.failf "%s missing from histogram JSON" label)
        Metrics.quantiles

(* --- OpenMetrics exposition (hexpulse) -------------------------------------- *)

module Openmetrics = Obs.Openmetrics

(* The full text a scraper sees for a known snapshot, byte for byte:
   counters with _total, gauges verbatim, log2 histogram re-rendered as
   cumulative le buckets closed by +Inf, # EOF terminator, dots and dashes
   sanitized to underscores. *)
let test_openmetrics_golden () =
  let hist =
    {
      Metrics.hs_count = 3;
      hs_sum = 0.75;
      hs_min = 0.1;
      hs_max = 0.4;
      hs_buckets = [ (Metrics.bucket_of 0.1, 2); (Metrics.bucket_of 0.4, 1) ];
    }
  in
  let snap =
    {
      Metrics.snap_counters = [ ("serve.requests", 3) ];
      snap_gauges = [ ("serve.drift_alarm", 0.0); ("weird-name.g", 1.5) ];
      snap_histograms = [ ("serve.warm_seconds", hist) ];
    }
  in
  let expected =
    "# TYPE serve_requests counter\n" ^ "serve_requests_total 3\n"
    ^ "# TYPE serve_drift_alarm gauge\n" ^ "serve_drift_alarm 0\n"
    ^ "# TYPE weird_name_g gauge\n" ^ "weird_name_g 1.5\n"
    ^ "# TYPE serve_warm_seconds histogram\n"
    ^ "serve_warm_seconds_bucket{le=\"0.125\"} 2\n"
    ^ "serve_warm_seconds_bucket{le=\"0.5\"} 3\n"
    ^ "serve_warm_seconds_bucket{le=\"+Inf\"} 3\n"
    ^ "serve_warm_seconds_sum 0.75\n" ^ "serve_warm_seconds_count 3\n"
    ^ "# EOF\n"
  in
  let rendered = Openmetrics.render snap in
  Alcotest.(check string) "golden exposition" expected rendered;
  match
    Openmetrics.validate
      ~require:[ "serve_requests"; "serve_drift_alarm"; "serve_warm_seconds" ]
      rendered
  with
  | Error e -> Alcotest.fail e
  | Ok { Openmetrics.families; samples } ->
      Alcotest.(check int) "families" 4 families;
      Alcotest.(check int) "samples" 8 samples

let test_openmetrics_label_escaping () =
  let nasty = "a\\b\"c\nd" in
  Alcotest.(check string) "escapes" "a\\\\b\\\"c\\nd"
    (Openmetrics.escape_label_value nasty);
  let text =
    "# TYPE x gauge\nx{path=\""
    ^ Openmetrics.escape_label_value nasty
    ^ "\"} 1\n# EOF\n"
  in
  match Openmetrics.parse text with
  | Error e -> Alcotest.fail e
  | Ok families -> (
      match Openmetrics.find families "x" with
      | None -> Alcotest.fail "family x missing"
      | Some f -> (
          match f.Openmetrics.f_samples with
          | [ s ] ->
              Alcotest.(check (list (pair string string)))
                "round-trips through the escapes"
                [ ("path", nasty) ]
                s.Openmetrics.s_labels
          | _ -> Alcotest.fail "expected exactly one sample"))

(* A live registry histogram survives the render -> parse -> validate
   round-trip, and the parsed cumulative series agrees with the registry's
   own counts. *)
let test_openmetrics_registry_roundtrip () =
  let h = Metrics.histogram "test.obs.omh" in
  List.iter (Metrics.observe h) [ 0.001; 0.002; 0.004; 0.1; 100.0 ];
  let text = Openmetrics.render (Metrics.snapshot ()) in
  (match Openmetrics.validate text with
  | Error e -> Alcotest.fail e
  | Ok _ -> ());
  match Openmetrics.parse text with
  | Error e -> Alcotest.fail e
  | Ok families -> (
      Alcotest.(check (option (float 0.0)))
        "count sample" (Some 5.0)
        (Openmetrics.value families "test_obs_omh_count");
      Alcotest.(check bool) "sum sample close" true
        (match Openmetrics.value families "test_obs_omh_sum" with
        | Some s -> Float.abs (s -. 100.107) < 1e-9
        | None -> false);
      match Openmetrics.find families "test_obs_omh" with
      | None -> Alcotest.fail "histogram family missing"
      | Some f ->
          let inf_bucket =
            List.find_opt
              (fun s ->
                s.Openmetrics.s_name = "test_obs_omh_bucket"
                && s.Openmetrics.s_labels = [ ("le", "+Inf") ])
              f.Openmetrics.f_samples
          in
          Alcotest.(check (option (float 0.0)))
            "+Inf bucket equals count" (Some 5.0)
            (Option.map (fun s -> s.Openmetrics.s_value) inf_bucket))

let test_openmetrics_rejects_malformed () =
  let broken what text =
    match Openmetrics.validate text with
    | Ok _ -> Alcotest.failf "%s passed validation" what
    | Error _ -> ()
  in
  broken "non-cumulative buckets"
    ("# TYPE h histogram\n" ^ "h_bucket{le=\"1\"} 5\n"
   ^ "h_bucket{le=\"2\"} 3\n" ^ "h_bucket{le=\"+Inf\"} 5\n" ^ "h_sum 1\n"
   ^ "h_count 5\n# EOF\n");
  broken "no +Inf closing bucket"
    ("# TYPE h histogram\n" ^ "h_bucket{le=\"1\"} 5\n" ^ "h_sum 1\n"
   ^ "h_count 5\n# EOF\n");
  broken "+Inf disagrees with count"
    ("# TYPE h histogram\n" ^ "h_bucket{le=\"+Inf\"} 4\n" ^ "h_sum 1\n"
   ^ "h_count 5\n# EOF\n");
  broken "negative counter"
    "# TYPE c counter\nc_total -1\n# EOF\n";
  broken "sample before any TYPE" "orphan 1\n# EOF\n";
  match Openmetrics.validate ~require:[ "absent_family" ] "# EOF\n" with
  | Ok _ -> Alcotest.fail "missing required family passed"
  | Error msg ->
      let contains ~needle hay =
        let nl = String.length needle and hl = String.length hay in
        let rec at i = i + nl <= hl && (String.sub hay i nl = needle || at (i + 1)) in
        at 0
      in
      Alcotest.(check bool) "names the missing family" true
        (contains ~needle:"absent_family" msg)

(* --- rolling SLO windows (hexpulse) ------------------------------------------ *)

let test_slo_windows_roll_and_judge () =
  let spec =
    {
      Obs.Slo.window_s = 10.0;
      windows = 4;
      p99_us = Some 500.0;
      warm_ratio = Some 0.5;
      error_budget = 0.01;
    }
  in
  let t = Obs.Slo.create ~spec ~now:0.0 () in
  (* window [0,10): 4 warm fast answers, 1 cold fast, 1 error *)
  for i = 1 to 4 do
    Obs.Slo.observe t ~now:(float_of_int i) ~warm:true ~error:false
      ~latency_s:100e-6
  done;
  Obs.Slo.observe t ~now:5.0 ~warm:false ~error:false ~latency_s:200e-6;
  Obs.Slo.observe t ~now:6.0 ~warm:false ~error:true ~latency_s:0.01;
  Alcotest.(check int) "nothing closed yet" 0 (List.length (Obs.Slo.windows t));
  (* crossing the boundary closes [0,10) *)
  Obs.Slo.tick t ~now:10.5;
  (match Obs.Slo.windows t with
  | [ w ] ->
      Alcotest.(check int) "requests" 6 w.Obs.Slo.w_requests;
      Alcotest.(check int) "errors" 1 w.Obs.Slo.w_errors;
      Alcotest.(check int) "warm" 4 w.Obs.Slo.w_warm;
      Alcotest.(check int) "cold" 1 w.Obs.Slo.w_cold;
      Alcotest.(check (float 0.0)) "window bounds" 0.0 w.Obs.Slo.w_start;
      Alcotest.(check (float 0.0)) "window end" 10.0 w.Obs.Slo.w_end;
      (* p50 over {100us x4, 200us, 10ms}: rank answer stays in the 100us
         dense bucket region, far under the 500us objective; p99 reaches
         the 10ms outlier and violates it *)
      Alcotest.(check bool) "p50 below objective" true
        (w.Obs.Slo.w_p50_us < 500.0);
      Alcotest.(check bool) "p99 above objective" true
        (w.Obs.Slo.w_p99_us > 500.0);
      Alcotest.(check bool) "p99 verdict: violated" false w.Obs.Slo.w_p99_ok;
      (* warm ratio 4/6 >= 0.5 holds *)
      Alcotest.(check bool) "warm verdict: ok" true w.Obs.Slo.w_warm_ok;
      Alcotest.(check bool) "window_ok is the conjunction" false
        (Obs.Slo.window_ok w)
  | ws -> Alcotest.failf "expected 1 closed window, got %d" (List.length ws));
  Alcotest.(check int) "violated count" 1 (Obs.Slo.violated t);
  (* the verdict gauges describe the closed window *)
  let snap = Metrics.snapshot () in
  let gauge name = List.assoc_opt name snap.Metrics.snap_gauges in
  Alcotest.(check (option (float 0.0))) "p99_ok gauge" (Some 0.0)
    (gauge "slo.p99_ok");
  Alcotest.(check (option (float 0.0))) "warm_ok gauge" (Some 1.0)
    (gauge "slo.warm_ratio_ok");
  (* error rate 1/6 over budget 0.01 burns at ~16.7x *)
  (match gauge "slo.error_budget_burn" with
  | None -> Alcotest.fail "burn gauge missing"
  | Some burn ->
      Alcotest.(check bool) "budget burning" true
        (burn > 16.0 && burn < 17.0));
  (* an idle stretch longer than the whole ring: closes a ring of empty
     windows (NaN quantiles, no violations) and jumps to the present *)
  Obs.Slo.tick t ~now:1000.0;
  let ws = Obs.Slo.windows t in
  Alcotest.(check int) "ring is full" 4 (List.length ws);
  (match ws with
  | w :: _ ->
      Alcotest.(check int) "latest window is empty" 0 w.Obs.Slo.w_requests;
      Alcotest.(check bool) "empty p99 is NaN" true
        (Float.is_nan w.Obs.Slo.w_p99_us);
      Alcotest.(check bool) "empty window violates nothing" true
        (Obs.Slo.window_ok w)
  | [] -> Alcotest.fail "ring empty after idle tick");
  (* the pre-idle violated window has rolled out of the ring *)
  Alcotest.(check int) "violations aged out" 0 (Obs.Slo.violated t);
  (* observations after the jump land in a window anchored at the present *)
  Obs.Slo.observe t ~now:1001.0 ~warm:true ~error:false ~latency_s:50e-6;
  Obs.Slo.tick t ~now:1011.0;
  match Obs.Slo.windows t with
  | w :: _ ->
      Alcotest.(check int) "post-jump window caught it" 1
        w.Obs.Slo.w_requests
  | [] -> Alcotest.fail "no window after the jump"

(* --- hexlens: series extraction and changepoint alerts --------------------- *)

module Series = Obs.Series
module Alert = Obs.Alert

(* a hand-built series: judge's input is just the ordered values *)
let series_of ?(kind = "bench") ?(group = "ci") ?(metric = "serve_warm_p99_us")
    vs =
  {
    Series.s_kind = kind;
    s_group = group;
    s_metric = metric;
    s_points =
      List.mapi
        (fun i v ->
          {
            Series.p_time = float_of_int i;
            p_value = v;
            p_git_rev = "";
            p_code_version = "test-v1";
          })
        vs;
  }

(* a stationary noisy baseline: spread ~MAD, no trend *)
let noise8 = [ 100.0; 103.0; 97.0; 101.0; 99.0; 102.0; 98.0; 100.0 ]

let test_series_extract () =
  let bench v = mk_entry ~kind:"bench" ~labels:[ ("scale", "ci") ]
      ~metrics:[ ("cold_sweep_points_per_sec", v); ("unwatched_metric", 1.0) ]
      ()
  in
  let validate exp v =
    mk_entry ~kind:"validate" ~labels:[ ("experiment", exp) ]
      ~metrics:[ ("rmse_top", v) ] ()
  in
  let alert_rec =
    mk_entry ~kind:"alert" ~labels:[ ("scale", "ci") ]
      ~metrics:[ ("cold_sweep_points_per_sec", 1e9) ] ()
  in
  let entries =
    [
      bench 1.0;
      validate "a" 0.1;
      bench 2.0;
      validate "b" 0.3;
      alert_rec;
      validate "a" 0.2;
      bench 3.0;
    ]
  in
  let ss = Series.extract entries in
  let keys = List.map Series.key ss in
  (* first-appearance order; per-experiment validate series do not
     interleave; the alert record and the unwatched metric contribute
     nothing *)
  Alcotest.(check (list string))
    "series keys in first-appearance order"
    [
      "bench/ci:cold_sweep_points_per_sec";
      "validate/a:rmse_top";
      "validate/b:rmse_top";
    ]
    keys;
  let find k = List.find (fun s -> Series.key s = k) ss in
  Alcotest.(check (list (float 0.0)))
    "bench points oldest first (alert value excluded)" [ 1.0; 2.0; 3.0 ]
    (Array.to_list (Series.values (find "bench/ci:cold_sweep_points_per_sec")));
  Alcotest.(check (list (float 0.0)))
    "experiment-a series keeps only its own runs" [ 0.1; 0.2 ]
    (Array.to_list (Series.values (find "validate/a:rmse_top")));
  match Series.last (find "validate/a:rmse_top") with
  | Some p -> Alcotest.(check (float 0.0)) "last is newest" 0.2 p.Series.p_value
  | None -> Alcotest.fail "non-empty series has no last point"

let test_alert_quiet_on_noise () =
  let v = Alert.judge (series_of (noise8 @ [ 101.0; 99.0 ])) in
  Alcotest.(check bool) "judged (n >= min_samples)" true v.Alert.v_judged;
  Alcotest.(check bool) "stationary noise stays quiet" true
    (v.Alert.v_fired = None);
  Alcotest.(check (float 0.5)) "median near the level" 100.0 v.Alert.v_median

let test_alert_fires_on_step () =
  (* a sustained upward step in a latency metric: regression *)
  let v =
    Alert.judge (series_of (noise8 @ [ 200.0; 200.0; 200.0; 200.0 ]))
  in
  (match v.Alert.v_fired with
  | Some f ->
      Alcotest.(check string) "page_hinkley fires first" "page_hinkley"
        f.Alert.f_detector;
      Alcotest.(check string) "direction up" "up"
        (Alert.direction_to_string f.Alert.f_direction);
      Alcotest.(check bool) "up is bad for a _us metric" true
        f.Alert.f_regression;
      Alcotest.(check bool) "stat crossed the threshold" true
        (f.Alert.f_stat > f.Alert.f_threshold)
  | None -> Alcotest.fail "4-point step did not fire");
  Alcotest.(check bool) "classified as regression" true (Alert.regression v);
  Alcotest.(check bool) "not an improvement" false (Alert.improvement v)

let test_alert_single_outlier_quiet () =
  (* one wild point is winsorised to z=4: bounded excursion, no firing *)
  let v = Alert.judge (series_of (noise8 @ [ 5000.0 ])) in
  Alcotest.(check bool) "judged" true v.Alert.v_judged;
  Alcotest.(check bool) "single outlier stays quiet" true
    (v.Alert.v_fired = None);
  Alcotest.(check bool) "excursion bounded by the winsor cap" true
    (v.Alert.v_ph_up <= 4.0)

let test_alert_improvement_direction () =
  (* the same magnitude of step down in a latency metric: improvement,
     reported but never a gate failure *)
  let v =
    Alert.judge (series_of (noise8 @ [ 20.0; 20.0; 20.0; 20.0 ]))
  in
  Alcotest.(check bool) "fired" true (v.Alert.v_fired <> None);
  Alcotest.(check bool) "down is good for a _us metric" true
    (Alert.improvement v);
  Alcotest.(check bool) "not a regression" false (Alert.regression v);
  (* a throughput metric with the same step up is an improvement too *)
  let v2 =
    Alert.judge
      (series_of ~metric:"serve_requests_per_sec"
         (noise8 @ [ 200.0; 200.0; 200.0; 200.0 ]))
  in
  Alcotest.(check bool) "up is good for _per_sec" true (Alert.improvement v2);
  (* an unknown metric is Neutral: either direction is a regression *)
  let v3 =
    Alert.judge
      (series_of ~metric:"mystery" (noise8 @ [ 200.0; 200.0; 200.0; 200.0 ]))
  in
  Alcotest.(check bool) "neutral metrics regress in both directions" true
    (Alert.regression v3)

let test_alert_to_entry_and_scan_exclusion () =
  let fired =
    Alert.judge (series_of (noise8 @ [ 200.0; 200.0; 200.0; 200.0 ]))
  in
  let e = Alert.to_entry fired in
  Alcotest.(check string) "alert kind" "alert" e.Ledger.kind;
  Alcotest.(check string) "detector version" Alert.code_version
    e.Ledger.code_version;
  Alcotest.(check (option string))
    "series label" (Some "bench/ci:serve_warm_p99_us")
    (List.assoc_opt "series" e.Ledger.labels);
  Alcotest.(check (option string))
    "verdict label" (Some "regression")
    (List.assoc_opt "verdict" e.Ledger.labels);
  Alcotest.(check (option (float 0.0)))
    "firing metric" (Some 1.0) (Ledger.metric e "firing");
  (* it survives the ledger round-trip *)
  with_ledger_file (fun path ->
      append_exn path e;
      match (load_exn path).Ledger.entries with
      | [ r ] -> Alcotest.(check string) "round-trip kind" "alert" r.Ledger.kind
      | es -> Alcotest.failf "expected 1 entry, got %d" (List.length es));
  (* a quiet verdict has no alert record *)
  (match Alert.to_entry (Alert.judge (series_of noise8)) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "to_entry accepted a verdict that did not fire");
  (* scan never reads alert records back in: appending the alert to the
     scanned window must not change a single verdict statistic *)
  let base =
    List.map
      (fun v ->
        mk_entry ~kind:"bench" ~labels:[ ("scale", "ci") ]
          ~metrics:[ ("serve_warm_p99_us", v) ] ())
      (noise8 @ [ 200.0; 200.0; 200.0; 200.0 ])
  in
  let stats v =
    (v.Alert.v_n, v.Alert.v_ph_up, v.Alert.v_ewma_z, v.Alert.v_fired <> None)
  in
  let before = List.map stats (Alert.scan base) in
  let after = List.map stats (Alert.scan (base @ [ e ])) in
  Alcotest.(check bool) "alert records are not detector input" true
    (before = after)

(* --- ledger lifecycle: rotation and compaction ------------------------------ *)

let test_ledger_rotate () =
  with_ledger_file @@ fun path ->
  (* under every threshold: no-op *)
  append_exn path (mk_entry ());
  (match Ledger.rotate ~path ~max_bytes:1_000_000 () with
  | Ok None -> ()
  | Ok (Some d) -> Alcotest.failf "young small ledger rotated to %s" d
  | Error e -> Alcotest.fail e);
  (* size trigger *)
  (match Ledger.rotate ~path ~max_bytes:1 () with
  | Ok (Some dest) ->
      Alcotest.(check bool) "rotated file exists" true (Sys.file_exists dest);
      Alcotest.(check bool) "original gone" false (Sys.file_exists path);
      Sys.remove dest
  | Ok None -> Alcotest.fail "oversized ledger did not rotate"
  | Error e -> Alcotest.fail e);
  (* a missing ledger never rotates *)
  (match Ledger.rotate ~path ~max_bytes:1 () with
  | Ok None -> ()
  | Ok (Some _) -> Alcotest.fail "missing file rotated"
  | Error e -> Alcotest.fail e);
  (* age trigger, judged from the first record's own timestamp *)
  append_exn path { (mk_entry ()) with Ledger.time_unix = 1000.0 };
  append_exn path (mk_entry ());
  (match Ledger.rotate ~path ~max_age_s:3600.0 ~now:2000.0 () with
  | Ok None -> ()
  | Ok (Some d) -> Alcotest.failf "young ledger rotated to %s" d
  | Error e -> Alcotest.fail e);
  match Ledger.rotate ~path ~max_age_s:3600.0 ~now:10_000.0 () with
  | Ok (Some dest) ->
      Alcotest.(check bool) "age-rotated file exists" true
        (Sys.file_exists dest);
      Sys.remove dest
  | Ok None -> Alcotest.fail "old ledger did not rotate"
  | Error e -> Alcotest.fail e

let test_ledger_compact () =
  with_ledger_file @@ fun path ->
  let validate v =
    mk_entry ~kind:"validate" ~labels:[ ("arch", "gtx980") ]
      ~metrics:[ ("rmse_top", v) ] ()
  in
  let audit req v =
    mk_entry ~kind:"audit"
      ~labels:[ ("req_id", req); ("key", "K") ]
      ~metrics:[ ("rel_err", v) ] ()
  in
  append_exn path (validate 1.0);
  append_exn path (mk_entry ~kind:"bench" ());
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
  output_string oc "corrupt line\n";
  close_out oc;
  append_exn path (validate 2.0);
  append_exn path (audit "a" 0.1);
  append_exn path (audit "b" 0.2);
  append_exn path { (mk_entry ~kind:"future" ()) with Ledger.schema = 99 };
  (match Ledger.compact ~path () with
  | Ok (kept, dropped) ->
      (* kept: bench, validate(2.0), audit b, unknown-schema verbatim;
         dropped: validate(1.0), corrupt, audit a *)
      Alcotest.(check int) "kept lines" 4 kept;
      Alcotest.(check int) "dropped lines" 3 dropped
  | Error e -> Alcotest.fail e);
  let l = load_exn path in
  Alcotest.(check (list string))
    "latest per identity, order preserved" [ "bench"; "validate"; "audit" ]
    (List.map (fun (e : Ledger.entry) -> e.Ledger.kind) l.Ledger.entries);
  Alcotest.(check int) "unknown schema kept verbatim" 1 l.Ledger.unknown_schema;
  Alcotest.(check int) "corrupt line gone" 0 l.Ledger.corrupt_lines;
  let validate_e =
    List.find (fun (e : Ledger.entry) -> e.Ledger.kind = "validate")
      l.Ledger.entries
  in
  Alcotest.(check (option (float 0.0)))
    "the later duplicate won" (Some 2.0)
    (Ledger.metric validate_e "rmse_top");
  (* req_id is not part of the identity: one audit survives *)
  Alcotest.(check int) "audits deduped across req_ids" 1
    (List.length (Ledger.filter ~kind:"audit" l.Ledger.entries))

let test_slo_ring_wraparound () =
  (* the ring is reused many times across a long simulated uptime: the
     verdict gauges and ring-wide counts must describe the *current* ring,
     not history.  1s windows, capacity 4, 500 closed windows; every 10th
     window takes a 10ms outlier that violates the 500us p99 objective. *)
  let spec =
    {
      Obs.Slo.window_s = 1.0;
      windows = 4;
      p99_us = Some 500.0;
      warm_ratio = None;
      error_budget = 0.01;
    }
  in
  let t = Obs.Slo.create ~spec ~now:0.0 () in
  let total = 500 in
  for w = 0 to total - 1 do
    let base = float_of_int w in
    Obs.Slo.observe t ~now:(base +. 0.25) ~warm:true ~error:false
      ~latency_s:100e-6;
    Obs.Slo.observe t ~now:(base +. 0.5) ~warm:true ~error:false
      ~latency_s:(if w mod 10 = 9 then 0.01 else 120e-6)
  done;
  Obs.Slo.tick t ~now:(float_of_int total);
  let ws = Obs.Slo.windows t in
  Alcotest.(check int) "ring capped at capacity" 4 (List.length ws);
  (* newest first: windows 499 498 497 496; 499 took the outlier *)
  (match ws with
  | newest :: rest ->
      Alcotest.(check (float 0.0)) "newest window start" 499.0
        newest.Obs.Slo.w_start;
      Alcotest.(check int) "every window saw its 2 requests" 2
        newest.Obs.Slo.w_requests;
      Alcotest.(check bool) "outlier window violates p99" false
        newest.Obs.Slo.w_p99_ok;
      List.iter
        (fun w ->
          Alcotest.(check bool) "clean windows hold p99" true
            w.Obs.Slo.w_p99_ok)
        rest
  | [] -> Alcotest.fail "empty ring after long uptime");
  Alcotest.(check int) "violations count only the live ring" 1
    (Obs.Slo.violated t);
  (* gauges describe the current ring after ~125 full wraps *)
  let snap = Metrics.snapshot () in
  let gauge name = List.assoc_opt name snap.Metrics.snap_gauges in
  Alcotest.(check (option (float 0.0))) "windows gauge" (Some 4.0)
    (gauge "slo.windows");
  Alcotest.(check (option (float 0.0))) "violated gauge" (Some 1.0)
    (gauge "slo.windows_violated");
  Alcotest.(check (option (float 0.0)))
    "p99 verdict gauge tracks the last closed window" (Some 0.0)
    (gauge "slo.p99_ok");
  (* one more clean window: the verdict gauge flips back *)
  Obs.Slo.observe t
    ~now:(float_of_int total +. 0.5)
    ~warm:true ~error:false ~latency_s:100e-6;
  Obs.Slo.tick t ~now:(float_of_int total +. 1.5);
  let snap = Metrics.snapshot () in
  Alcotest.(check (option (float 0.0)))
    "verdict gauge recovers on the next clean window" (Some 1.0)
    (List.assoc_opt "slo.p99_ok" snap.Metrics.snap_gauges)

let test_slo_create_validates () =
  (match
     Obs.Slo.create
       ~spec:{ Obs.Slo.default_spec with Obs.Slo.window_s = 0.0 }
       ~now:0.0 ()
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "window_s = 0 accepted");
  match
    Obs.Slo.create
      ~spec:{ Obs.Slo.default_spec with Obs.Slo.windows = 0 }
      ~now:0.0 ()
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "windows = 0 accepted"

let suite =
  [
    Alcotest.test_case "counter, gauge, histogram" `Quick
      test_counter_gauge_histogram;
    Alcotest.test_case "histogram quantiles" `Quick test_histogram_quantiles;
    Alcotest.test_case "quantiles exported in snapshot JSON" `Quick
      test_quantiles_in_snapshot_json;
    Alcotest.test_case "trace gating" `Quick test_trace_gating;
    Alcotest.test_case "trace records and exports" `Quick
      test_trace_records_and_exports;
    Alcotest.test_case "minijson non-finite floats" `Quick
      test_minijson_nonfinite;
    Alcotest.test_case "minijson nested/large round-trip" `Quick
      test_minijson_roundtrip_nested_large;
    Alcotest.test_case "model attribution sums to talg" `Quick
      test_model_attribution_sums;
    Alcotest.test_case "attribution reuses the prediction" `Quick
      test_model_attribution_matches_predict;
    Alcotest.test_case "simulator attribution sums to priced time" `Quick
      test_simulator_attribution_sums;
    Alcotest.test_case "attribution accumulator top-k" `Quick
      test_attribution_accumulator;
    Alcotest.test_case "sweep identical under tracing" `Quick
      test_sweep_identical_under_tracing;
    Alcotest.test_case "ledger round-trip" `Quick test_ledger_roundtrip;
    Alcotest.test_case "ledger corrupt-line tolerance" `Quick
      test_ledger_corrupt_tolerance;
    Alcotest.test_case "ledger unknown schema skipped" `Quick
      test_ledger_unknown_schema;
    Alcotest.test_case "ledger filter and latest" `Quick
      test_ledger_filter_latest;
    Alcotest.test_case "sweep identical with heartbeats" `Quick
      test_sweep_identical_with_progress;
    Alcotest.test_case "first heartbeat tick stays finite" `Quick
      test_progress_first_tick_is_finite;
    Alcotest.test_case "openmetrics golden exposition" `Quick
      test_openmetrics_golden;
    Alcotest.test_case "openmetrics label escaping" `Quick
      test_openmetrics_label_escaping;
    Alcotest.test_case "openmetrics registry round-trip" `Quick
      test_openmetrics_registry_roundtrip;
    Alcotest.test_case "openmetrics rejects malformed" `Quick
      test_openmetrics_rejects_malformed;
    Alcotest.test_case "slo windows roll and judge" `Quick
      test_slo_windows_roll_and_judge;
    Alcotest.test_case "slo create validates" `Quick test_slo_create_validates;
    Alcotest.test_case "hexlens series extraction" `Quick test_series_extract;
    Alcotest.test_case "hexlens quiet on stationary noise" `Quick
      test_alert_quiet_on_noise;
    Alcotest.test_case "hexlens fires on a sustained step" `Quick
      test_alert_fires_on_step;
    Alcotest.test_case "hexlens single outlier stays quiet" `Quick
      test_alert_single_outlier_quiet;
    Alcotest.test_case "hexlens direction and orientation" `Quick
      test_alert_improvement_direction;
    Alcotest.test_case "hexlens alert records round-trip, never re-scanned"
      `Quick test_alert_to_entry_and_scan_exclusion;
    Alcotest.test_case "ledger rotation by size and age" `Quick
      test_ledger_rotate;
    Alcotest.test_case "ledger compaction keeps latest per identity" `Quick
      test_ledger_compact;
    Alcotest.test_case "slo ring wrap-around over long uptime" `Quick
      test_slo_ring_wraparound;
  ]
