(* hexlens: per-metric, per-experiment time series over the run ledger.

   A series is the trajectory of one scalar metric for one experiment
   group: every ledger entry of the right kind that carries the metric
   contributes one point, in file (= time) order.  The extraction is the
   read side of the regression observatory — Alert runs its detectors
   over these, `hextime watch` renders them.

   Grouping: runs of the same kind can describe different experiments
   (validate records carry an "experiment" label, audit records a "key"
   digest, bench records a "scale").  The first of those labels present
   on an entry becomes the series group, so per-experiment trajectories
   never interleave. *)

type point = {
  p_time : float;
  p_value : float;
  p_git_rev : string;
  p_code_version : string;
}

type t = {
  s_kind : string;
  s_group : string;
  s_metric : string;
  s_points : point list;  (* oldest first *)
}

let key s = Printf.sprintf "%s/%s:%s" s.s_kind s.s_group s.s_metric

(* Label priority for the group discriminator.  "experiment" pins a
   validate record to its stencil×machine instance, "key" is the
   audit record's request digest, "scale" separates ci/quick/paper bench
   runs. *)
let group_labels = [ "experiment"; "key"; "scale" ]

let group_of (e : Ledger.entry) =
  let rec first = function
    | [] -> ""
    | l :: rest -> (
        match List.assoc_opt l e.Ledger.labels with
        | Some v -> v
        | None -> first rest)
  in
  first group_labels

(* The default watched set: the longitudinal claims of the paper (model
   accuracy, arg-min band membership) and the operational figures the
   gates care about (sweep throughput, serving latency).  Deliberately
   curated — every extra series is false-positive surface.  Nothing in
   the repository writes bench records; the committed LEDGER_seed.jsonl
   holds a bench series, which CI's injected-regression smoke steps.  The
   parallel (domains) throughput stays out: bench/main.exe checks it per
   run against the serial figure, and its run-to-run spread is a property
   of the container, not the code. *)
let default_watch =
  [
    ( "bench",
      [
        "cold_sweep_points_per_sec";
        "serve_requests_per_sec";
        "serve_warm_p99_us";
        "serve_metrics_scrape_us";
      ] );
    ( "validate",
      [
        "rmse_top";
        "rmse_all";
        "correlation_top";
        "argmin_quality";
        "argmin_in_band";
        "points_per_sec";
      ] );
    ("audit", [ "in_band"; "rel_err" ]);
    ("serve", [ "drift_alarm"; "requests_per_sec" ]);
  ]

let extract ?(watch = default_watch) entries =
  (* (kind, group, metric) -> points, newest first while building *)
  let tbl : (string * string * string, point list) Hashtbl.t =
    Hashtbl.create 64
  in
  let order = ref [] in
  List.iter
    (fun (e : Ledger.entry) ->
      (* alert records are detector output, never detector input: scanning
         them back in would make repeated watch runs self-exciting *)
      if e.Ledger.kind <> "alert" then
        match List.assoc_opt e.Ledger.kind watch with
        | None -> ()
        | Some metrics ->
            let group = group_of e in
            List.iter
              (fun m ->
                match Ledger.metric e m with
                | None -> ()
                | Some v ->
                    let k = (e.Ledger.kind, group, m) in
                    let p =
                      {
                        p_time = e.Ledger.time_unix;
                        p_value = v;
                        p_git_rev = e.Ledger.git_rev;
                        p_code_version = e.Ledger.code_version;
                      }
                    in
                    (match Hashtbl.find_opt tbl k with
                    | None ->
                        order := k :: !order;
                        Hashtbl.replace tbl k [ p ]
                    | Some ps -> Hashtbl.replace tbl k (p :: ps)))
              metrics)
    entries;
  List.rev_map
    (fun ((kind, group, metric) as k) ->
      {
        s_kind = kind;
        s_group = group;
        s_metric = metric;
        s_points = List.rev (Hashtbl.find tbl k);
      })
    !order

let values s =
  Array.of_list (List.map (fun p -> p.p_value) s.s_points)

let length s = List.length s.s_points

let last s =
  match List.rev s.s_points with [] -> None | p :: _ -> Some p
