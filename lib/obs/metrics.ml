module Minijson = Hextime_prelude.Minijson
module Tabulate = Hextime_prelude.Tabulate

(* --- live metric handles ------------------------------------------------- *)

(* Counters are Atomic-backed: the domains-based sweep pool (Parsweep.Dpool)
   runs [f] on several domains of one process, all bumping the same handles,
   and the serial == parallel totals contract requires every bump to land.
   Gauges and histograms are multi-field updates, so they serialise through
   [registry_mutex] instead — they are off the per-point hot path (progress
   ticks, per-task latency). *)
type counter = { c_name : string; c : int Atomic.t }
type gauge = { g_name : string; mutable g : float; mutable g_set : bool }

(* One lock for registration, gauge/histogram mutation and snapshotting.
   Counter increments stay lock-free. *)
let registry_mutex = Mutex.create ()

let locked f = Mutex.protect registry_mutex f

(* log2-bucketed: bucket [i] counts observations v with 2^(i-bucket_bias-1)
   <= v < 2^(i-bucket_bias); bucket 0 additionally holds everything at or
   below the smallest bound (including zero and negatives, which the hot
   paths never produce but a histogram must not crash on) *)
let bucket_bias = 64
let bucket_count = 129

type histogram = {
  h_name : string;
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
  h_buckets : int array;
}

(* Three registries, one per kind.  Names are expected to be unique across
   kinds; [snapshot] renders them in sorted order so output is
   deterministic.  Creation is find-or-create: modules may declare the same
   metric at toplevel without coordinating. *)
let counters : (string, counter) Hashtbl.t = Hashtbl.create 32
let gauges : (string, gauge) Hashtbl.t = Hashtbl.create 8
let histograms : (string, histogram) Hashtbl.t = Hashtbl.create 8

let counter name =
  locked @@ fun () ->
  match Hashtbl.find_opt counters name with
  | Some c -> c
  | None ->
      let c = { c_name = name; c = Atomic.make 0 } in
      Hashtbl.add counters name c;
      c

let gauge name =
  locked @@ fun () ->
  match Hashtbl.find_opt gauges name with
  | Some g -> g
  | None ->
      let g = { g_name = name; g = 0.0; g_set = false } in
      Hashtbl.add gauges name g;
      g

let histogram name =
  locked @@ fun () ->
  match Hashtbl.find_opt histograms name with
  | Some h -> h
  | None ->
      let h =
        {
          h_name = name;
          h_count = 0;
          h_sum = 0.0;
          h_min = infinity;
          h_max = neg_infinity;
          h_buckets = Array.make bucket_count 0;
        }
      in
      Hashtbl.add histograms name h;
      h

let incr ?(by = 1) c = ignore (Atomic.fetch_and_add c.c by)
let value c = Atomic.get c.c

let set g v =
  locked @@ fun () ->
  g.g <- v;
  g.g_set <- true

let bucket_of v =
  if not (Float.is_finite v) || v <= 0.0 then 0
  else
    let _, e = Float.frexp v in
    (* v in [2^(e-1), 2^e) *)
    max 0 (min (bucket_count - 1) (e + bucket_bias))

let observe h v =
  locked @@ fun () ->
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum +. v;
  if v < h.h_min then h.h_min <- v;
  if v > h.h_max then h.h_max <- v;
  let i = bucket_of v in
  h.h_buckets.(i) <- h.h_buckets.(i) + 1

(* --- snapshots ------------------------------------------------------------ *)

type hist_snapshot = {
  hs_count : int;
  hs_sum : float;
  hs_min : float;
  hs_max : float;
  hs_buckets : (int * int) list;  (* (bucket index, count), sparse *)
}

type snapshot = {
  snap_counters : (string * int) list;
  snap_gauges : (string * float) list;
  snap_histograms : (string * hist_snapshot) list;
}

let sorted_by_name xs = List.sort (fun (a, _) (b, _) -> String.compare a b) xs

let snapshot () =
  locked @@ fun () ->
  let cs =
    Hashtbl.fold (fun name c acc -> (name, Atomic.get c.c) :: acc) counters []
  in
  let gs =
    Hashtbl.fold
      (fun name g acc -> if g.g_set then (name, g.g) :: acc else acc)
      gauges []
  in
  let hs =
    Hashtbl.fold
      (fun name h acc ->
        let buckets = ref [] in
        for i = bucket_count - 1 downto 0 do
          if h.h_buckets.(i) > 0 then buckets := (i, h.h_buckets.(i)) :: !buckets
        done;
        ( name,
          {
            hs_count = h.h_count;
            hs_sum = h.h_sum;
            hs_min = h.h_min;
            hs_max = h.h_max;
            hs_buckets = !buckets;
          } )
        :: acc)
      histograms []
  in
  {
    snap_counters = sorted_by_name cs;
    snap_gauges = sorted_by_name gs;
    snap_histograms = sorted_by_name hs;
  }

let empty =
  { snap_counters = []; snap_gauges = []; snap_histograms = [] }

(* --- quantiles ------------------------------------------------------------ *)

(* Rank-based estimation over the log2 buckets.  Walk the sparse bucket
   list until the cumulative count covers rank q*(n-1)+1, then interpolate
   geometrically inside the covering bucket [2^(i-bias-1), 2^(i-bias)) —
   the midpoint rule on a log scale, which bounds the relative error by
   the bucket ratio (2x) and is exact for single-observation buckets
   clamped against hs_min/hs_max. *)
(* An empty histogram has no quantiles: every estimate is NaN, never a
   stray infinity leaked from the hs_min/hs_max sentinels (those are
   +inf/-inf before the first observation, and the q=0/q=1 shortcuts and
   the min/max clamp would otherwise surface them).  NaN survives
   Minijson deterministically (rendered as the string "NaN"), so empty
   histograms keep a stable JSON shape instead of dropping keys. *)
let quantile hs q =
  if hs.hs_count = 0 || not (Float.is_finite q) || q < 0.0 || q > 1.0 then
    Float.nan
  else if q = 0.0 then hs.hs_min
  else if q = 1.0 then hs.hs_max
  else begin
    let n = hs.hs_count in
    let rank = (q *. float_of_int (n - 1)) +. 1.0 in
    let rec walk seen = function
      | [] -> hs.hs_max (* rounding: the rank fell off the end *)
      | (i, c) :: rest ->
          let seen' = seen + c in
          if float_of_int seen' >= rank then begin
            (* bucket i holds observations in [lo, hi); interpolate the
               within-bucket position on a log scale *)
            let lo, hi =
              if i = 0 then (hs.hs_min, Float.ldexp 1.0 (-bucket_bias))
              else
                ( Float.ldexp 1.0 (i - bucket_bias - 1),
                  Float.ldexp 1.0 (i - bucket_bias) )
            in
            let frac =
              (rank -. float_of_int seen) /. float_of_int c
            in
            let frac = Float.max 0.0 (Float.min 1.0 frac) in
            let v =
              if lo > 0.0 && Float.is_finite lo && hi > lo then
                exp (log lo +. (frac *. (log hi -. log lo)))
              else hi
            in
            (* the true extrema are known exactly: never report outside
               [hs_min, hs_max] *)
            Float.max hs.hs_min (Float.min hs.hs_max v)
          end
          else walk seen' rest
    in
    walk 0 hs.hs_buckets
  end

let quantiles = [ ("p50", 0.5); ("p90", 0.9); ("p99", 0.99) ]

(* --- export --------------------------------------------------------------- *)

let bucket_label i =
  if i = 0 then "<=2^-64" else Printf.sprintf "<2^%d" (i - bucket_bias)

let to_json s =
  let num f = Minijson.Num f in
  Minijson.Obj
    [
      ( "counters",
        Minijson.Obj
          (List.map
             (fun (k, v) -> (k, num (float_of_int v)))
             s.snap_counters) );
      ( "gauges",
        Minijson.Obj (List.map (fun (k, v) -> (k, num v)) s.snap_gauges) );
      ( "histograms",
        Minijson.Obj
          (List.map
             (fun (k, hs) ->
               ( k,
                 Minijson.Obj
                   ([
                      ("count", num (float_of_int hs.hs_count));
                      ("sum", num hs.hs_sum);
                      ("min", num hs.hs_min);
                      ("max", num hs.hs_max);
                    ]
                   @ List.map
                       (fun (label, q) -> (label, num (quantile hs q)))
                       quantiles
                   @ [
                       ( "buckets",
                         Minijson.Obj
                           (List.map
                              (fun (i, c) ->
                                (bucket_label i, num (float_of_int c)))
                              hs.hs_buckets) );
                     ]) ))
             s.snap_histograms) );
    ]

let render s =
  let buf = Buffer.create 512 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  List.iter (fun (k, v) -> pf "%-40s %d\n" k v) s.snap_counters;
  List.iter (fun (k, v) -> pf "%-40s %.6g\n" k v) s.snap_gauges;
  List.iter
    (fun (k, hs) ->
      if hs.hs_count = 0 then pf "%-40s (empty)\n" k
      else
        pf "%-40s n=%d mean=%s min=%s max=%s%s\n" k hs.hs_count
          (Tabulate.seconds_cell (hs.hs_sum /. float_of_int hs.hs_count))
          (Tabulate.seconds_cell hs.hs_min)
          (Tabulate.seconds_cell hs.hs_max)
          (String.concat ""
             (List.map
                (fun (label, q) ->
                  Printf.sprintf " %s=%s" label
                    (Tabulate.seconds_cell (quantile hs q)))
                quantiles)))
    s.snap_histograms;
  Buffer.contents buf

let find_counter s name = List.assoc_opt name s.snap_counters

(* The rules of `hextime metrics-verify`, over [to_json]'s shape as it
   comes back off the wire.  Minijson.number reads only [Num], so the
   "NaN"/"Infinity" strings of an empty histogram (or a NaN gauge) are
   absent, not malformed. *)
let check_json ~require ~expect json =
  match json with
  | Minijson.Obj _ ->
      let section name =
        match Minijson.member name json with
        | Some (Minijson.Obj fields) -> fields
        | _ -> []
      in
      let counters = section "counters"
      and gauges = section "gauges"
      and histograms = section "histograms" in
      let show = function
        | Some v -> Printf.sprintf "%.17g" v
        | None -> "absent"
      in
      let missing =
        List.filter_map
          (fun name ->
            if
              List.mem_assoc name counters || List.mem_assoc name gauges
              || List.mem_assoc name histograms
            then None
            else Some (name ^ " is absent"))
          require
      in
      let wrong =
        List.filter_map
          (fun (name, want) ->
            match Option.bind (List.assoc_opt name gauges) Minijson.number with
            | Some v when v = want -> None
            | got ->
                Some
                  (Printf.sprintf "expected %s=%.17g, got %s" name want
                     (show got)))
          expect
      in
      let negative =
        List.filter_map
          (fun (name, v) ->
            match Minijson.number v with
            | Some c when c >= 0.0 -> None
            | _ -> Some (Printf.sprintf "counter %s is not >= 0" name))
          counters
      in
      let unbalanced =
        List.filter_map
          (fun (name, h) ->
            let count =
              Option.bind (Minijson.member "count" h) Minijson.number
            in
            let sum =
              match Minijson.member "buckets" h with
              | Some (Minijson.Obj bs) ->
                  List.fold_left
                    (fun acc (_, c) ->
                      match (acc, Minijson.number c) with
                      | Some s, Some c -> Some (s +. c)
                      | _ -> None)
                    (Some 0.0) bs
              | _ -> None
            in
            match (sum, count) with
            | Some s, Some c when s = c -> None
            | _ ->
                Some
                  (Printf.sprintf "histogram %s: buckets sum to %s, count %s"
                     name (show sum) (show count)))
          histograms
      in
      (match missing @ wrong @ negative @ unbalanced with
      | [] ->
          Ok
            (List.length counters + List.length gauges
           + List.length histograms)
      | broken -> Error (String.concat "; " broken))
  | _ -> Error "the metrics snapshot is not a JSON object"
