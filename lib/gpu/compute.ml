(* Dev builds compile every module with -opaque, so no call into another
   module is inlined and a float it returns is boxed.  The helpers the
   pricing path uses are therefore local and [@inline], and compare ints
   with [if] rather than the polymorphic [min]/[max]. *)

(* [Ints.ceil_div] for non-negative [a] and positive [b] *)
let[@inline] ceil_div a b = (a + b - 1) / b

let[@inline] warps_for (arch : Arch.t) ~threads =
  ceil_div threads arch.warp_size

let[@inline] usable_lanes (arch : Arch.t) ~threads =
  if threads < arch.n_vector then threads else arch.n_vector

(* issue rounds for a row of [points] over [lanes] usable lanes *)
let[@inline] rounds ~lanes ~points =
  if points <= 0 then invalid_arg "Compute.lane_iterations";
  ceil_div points lanes

let lane_iterations arch ~threads ~points =
  rounds ~lanes:(usable_lanes arch ~threads) ~points

(* Full latency hiding needs roughly 8 resident warps per scheduler; fewer
   warps leave pipeline bubbles. *)
let warps_for_full_hiding = 8

let[@inline] latency_hiding_factor arch ~threads =
  let w = warps_for arch ~threads in
  if w >= warps_for_full_hiding then 1.0
  else 1.0 +. (0.15 *. float_of_int (warps_for_full_hiding - w))

let[@inline] divergence_factor (arch : Arch.t) ~threads =
  (* warp-granular issue: 48 threads occupy 2 warps' worth of lanes *)
  float_of_int (warps_for arch ~threads * arch.warp_size)
  /. float_of_int threads

let[@inline] per_point_seconds arch (w : Workload.t) ~spilled_regs =
  let base = Pointcost.seconds arch w.body in
  let conflicts = Smem.conflict_factor arch ~row_stride:w.row_stride in
  let spill =
    if spilled_regs = 0 then 0.0
    else
      (* each spilled register is reloaded/stored around every point update *)
      Memory.spill_traffic_s arch ~words:(float_of_int spilled_regs *. 0.5)
  in
  (base *. conflicts) +. spill

(* a __syncthreads barrier drains the SM's pipelines; other resident blocks
   can fill the bubble, so the exposed stall shrinks with residency *)
let barrier_drain_cycles = 40.0

let[@inline] stretch arch ~threads =
  latency_hiding_factor arch ~threads *. divergence_factor arch ~threads

let[@inline] barrier_seconds (arch : Arch.t) ~resident =
  Arch.seconds_of_cycles arch
    (float_of_int arch.sync_cycles
    +. (barrier_drain_cycles /. float_of_int resident))

let row_seconds arch (w : Workload.t) ~spilled_regs ~resident ~points =
  if resident < 1 then invalid_arg "Compute.row_seconds: resident < 1";
  let iters = lane_iterations arch ~threads:w.threads ~points in
  let per_point = per_point_seconds arch w ~spilled_regs in
  (float_of_int iters *. per_point *. stretch arch ~threads:w.threads)
  +. barrier_seconds arch ~resident

(* The per-row fold, with everything row-invariant hoisted: only the lane
   iteration count depends on the row, so the point cost, the usable
   lanes, the hiding and divergence stretch and the barrier are computed
   once per chunk instead of once per row.  The per-row expression is kept
   verbatim from [row_seconds] so the sum is bit-identical to folding it
   directly.  A loop over a float ref, so no row boxes its partial sum. *)
let chunk_seconds arch (w : Workload.t) ~spilled_regs ~resident =
  if resident < 1 then invalid_arg "Compute.chunk_seconds: resident < 1";
  let per_point = per_point_seconds arch w ~spilled_regs in
  let stretch = stretch arch ~threads:w.threads in
  let barrier_s = barrier_seconds arch ~resident in
  let lanes = usable_lanes arch ~threads:w.threads in
  let acc = ref 0.0 and rows = ref w.rows in
  while not (List.is_empty !rows) do
    match !rows with
    | [] -> ()
    | (r : Workload.row) :: rest ->
        let iters = rounds ~lanes ~points:r.points in
        acc :=
          !acc
          +. float_of_int r.repeats
             *. ((float_of_int iters *. per_point *. stretch) +. barrier_s);
        rows := rest
  done;
  !acc
