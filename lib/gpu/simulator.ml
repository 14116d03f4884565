module Ints = Hextime_prelude.Ints
module Det_hash = Hextime_prelude.Det_hash
module Metrics = Hextime_obs.Metrics

type kernel_stats = {
  time_s : float;
  blocks : int;
  resident_blocks : int;
  limiting : Occupancy.limit;
  spilled_regs : int;
  io_s : float;
  compute_s : float;
}

type run_stats = {
  total_s : float;
  kernel_launches : int;
  kernels : kernel_stats list;
}

(* Instrumentation: every kernel pricing bumps the counter, so the number
   of pricings per sweep point is directly observable.  Since the
   priced-kernel refactor a pricing happens
   once per kernel, not once per measurement run: a min-of-five measurement
   is one pricing plus five jitter reapplications.  The counters live in the
   metrics registry, which a sweep's worker domains share, so the totals
   stay correct under --jobs N. *)
let price_counter = Metrics.counter "simulator.price"
let replay_counter = Metrics.counter "simulator.replay"
let invocations () = Metrics.value price_counter

let jitter_amplitude = 0.015

let jitter_factor (arch : Arch.t) label ~salt =
  Det_hash.create arch.name
  |> fun h ->
  Det_hash.mix_string h label
  |> fun h -> Det_hash.mix_int h salt |> Det_hash.jitter ~amplitude:jitter_amplitude

let block_cost arch ~resident (w : Workload.t) ~spilled_regs =
  let io =
    Memory.block_transfer_s arch ~concurrent_blocks:resident w.input
    +. Memory.block_transfer_s arch ~concurrent_blocks:resident w.output
  in
  let compute = Compute.chunk_seconds arch w ~spilled_regs ~resident in
  (io, compute)

(* Wall time for one SM to retire a queue of blocks.  The GPU's block
   scheduler streams blocks: as soon as a resident block retires the next
   one launches, so with k >= 2 resident blocks the IO of one chunk overlaps
   the compute of another and the SM's steady-state period per chunk is
   max(io, compute); the first chunk's transfer is exposed as pipeline fill.
   Without hyper-threading (k = 1) the phases of the block serialise — the
   truthful counterpart of Equations 10/12 and 16/28/29. *)
let queue_time ~resident costs =
  match costs with
  | [] -> 0.0
  | _ ->
      let total_io =
        List.fold_left
          (fun a ((io, _), chunks) -> a +. (io *. float_of_int chunks))
          0.0 costs
      in
      let total_comp =
        List.fold_left
          (fun a ((_, c), chunks) -> a +. (c *. float_of_int chunks))
          0.0 costs
      in
      if resident = 1 then total_io +. total_comp
      else
        let (io1, c1), _ = List.hd costs in
        max total_io total_comp +. min io1 c1

let infeasible (occ : Occupancy.result) (req : Occupancy.request) =
  let what =
    match occ.limiting with
    | Occupancy.Shared_memory ->
        Printf.sprintf "shared memory: block needs %d words" req.shared_words
    | Occupancy.Threads ->
        Printf.sprintf "threads: block needs %d threads" req.threads
    | Occupancy.Registers ->
        Printf.sprintf "registers: %d per thread" req.regs_per_thread
    | Occupancy.Blocks -> "block slots"
  in
  Printf.sprintf "no block fits on an SM (limited by %s)" what

let kernel_setup arch (k : Kernel.t) =
  let req = Kernel.max_request k in
  let occ = Occupancy.calculate arch req in
  if occ.blocks_per_sm = 0 then Error (infeasible occ req)
  else Ok (req, occ)

(* Average per-chunk (io, compute) over a kernel's block population from
   per-class costs computed exactly once, and the average chunk count;
   kernels are overwhelmingly uniform so this loses almost nothing and
   keeps the cost independent of block count. *)
let average_of_class_costs (k : Kernel.t) class_costs =
  let total = float_of_int (Kernel.total_blocks k) in
  List.fold_left
    (fun (aio, acomp, achunks) ((w : Workload.t), count, (io, comp)) ->
      let f = float_of_int count /. total in
      ( aio +. (io *. f),
        acomp +. (comp *. f),
        achunks +. (float_of_int w.chunks *. f) ))
    (0.0, 0.0, 0.0) class_costs

let class_costs arch ~resident ~spilled (k : Kernel.t) =
  List.map
    (fun ((w : Workload.t), count) ->
      (w, count, block_cost arch ~resident w ~spilled_regs:spilled))
    k.blocks

let average_costs arch ~resident ~spilled (k : Kernel.t) =
  average_of_class_costs k (class_costs arch ~resident ~spilled k)

let stats_of_time (k : Kernel.t) (occ : Occupancy.result) ~io ~comp
    ~chunks time_s =
  {
    time_s;
    blocks = Kernel.total_blocks k;
    resident_blocks = occ.blocks_per_sm;
    limiting = occ.limiting;
    spilled_regs = occ.regs_spilled_per_thread;
    io_s = io *. chunks;
    compute_s = comp *. chunks;
  }

(* --- the priced-kernel representation ----------------------------------- *)

(* Everything the simulator computes about a kernel is jitter-invariant:
   occupancy, per-class block costs, the averaged chunk costs and the
   round-synchronised body time.  [price] computes all of it exactly once;
   the salted entry points below are O(1) reapplications of a jitter factor
   to the priced body.  The measurement protocol (min of five salted runs)
   therefore costs one pricing, not five. *)
type priced = {
  kernel : Kernel.t;
  occ : Occupancy.result;
  avg_io : float;  (* averaged per-chunk transfer seconds *)
  avg_comp : float;  (* averaged per-chunk compute seconds *)
  avg_chunks : float;  (* averaged chunk count *)
  base_s : float;  (* launch overhead + body; the jitter-invariant time *)
  jitter_seed : Det_hash.t;
      (* the hash state over (architecture, label), so a salted replay only
         mixes in the salt *)
}

let price arch (k : Kernel.t) =
  Metrics.incr price_counter;
  match kernel_setup arch k with
  | Error _ as e -> e
  | Ok (_req, occ) ->
      let resident = occ.blocks_per_sm in
      let spilled = occ.regs_spilled_per_thread in
      let io, comp, chunks = average_costs arch ~resident ~spilled k in
      let blocks = Kernel.total_blocks k in
      (* Stencil blocks are near-uniform and the warp scheduler shares the
         SM fairly, so the [resident] co-resident blocks of a round finish
         together and the next round starts together: execution is
         round-synchronised.  The last round holds whatever is left. *)
      let cost j = ((io, comp), int_of_float (Float.round chunks) * j) in
      let round_time j =
        if j = 0 then 0.0 else queue_time ~resident:j [ cost j ]
      in
      let capacity = arch.n_sm * resident in
      let full_rounds = blocks / capacity in
      let remainder = blocks mod capacity in
      let body =
        (float_of_int full_rounds *. round_time resident)
        +. round_time (Ints.ceil_div remainder arch.n_sm)
      in
      Ok
        {
          kernel = k;
          occ;
          avg_io = io;
          avg_comp = comp;
          avg_chunks = chunks;
          base_s = arch.launch_overhead_s +. body;
          jitter_seed = Det_hash.mix_string (Det_hash.create arch.name) k.label;
        }

let priced_time ?(jitter = true) ~salt _arch p =
  (* Det_hash states are pure folds, so mixing the salt into the stored
     (architecture, label) state is the exact [jitter_factor] value *)
  let j =
    if jitter then
      Det_hash.jitter
        (Det_hash.mix_int p.jitter_seed salt)
        ~amplitude:jitter_amplitude
    else 1.0
  in
  p.base_s *. j

let priced_stats ?(jitter = true) ~salt arch p =
  stats_of_time p.kernel p.occ ~io:p.avg_io ~comp:p.avg_comp
    ~chunks:p.avg_chunks
    (priced_time ~jitter ~salt arch p)

(* Where does a priced kernel's time go?  Mirrors the round structure of
   [price] so the component sum reconstructs [priced_time] up to float
   rounding: per round the dominant max(io, compute) term is credited to
   its own side and the pipeline-fill term [min io comp] to the smaller
   side (it is that phase's exposed cost).  Shared-memory traffic is folded
   into compute by the cost model ([Compute.chunk_seconds] charges bank
   conflicts as compute cycles) and sync likewise, so those components are
   zero here — the analytical model's attribution is where they split out.
   The jitter component is the salted replay's deviation from the priced
   body and may be negative. *)
let attribute_priced ?(jitter = true) ~salt (arch : Arch.t) p =
  let resident = p.occ.Occupancy.blocks_per_sm in
  let io = p.avg_io and comp = p.avg_comp in
  let chunks = int_of_float (Float.round p.avg_chunks) in
  let round_parts j =
    if j = 0 then (0.0, 0.0)
    else
      let tio = io *. float_of_int (chunks * j) in
      let tcomp = comp *. float_of_int (chunks * j) in
      (* a round of one block per SM serialises, as [queue_time] prices
         it, even when more blocks could be resident *)
      if j = 1 then (tio, tcomp)
      else
        let fill = min io comp in
        let fio, fcomp = if io <= comp then (fill, 0.0) else (0.0, fill) in
        if tio >= tcomp then (tio +. fio, fcomp) else (fio, tcomp +. fcomp)
  in
  let blocks = Kernel.total_blocks p.kernel in
  let capacity = arch.n_sm * resident in
  let full_rounds = blocks / capacity in
  let remainder = blocks mod capacity in
  let rio_full, rcomp_full = round_parts resident in
  let rio_last, rcomp_last = round_parts (Ints.ceil_div remainder arch.n_sm) in
  let f = float_of_int full_rounds in
  let jf =
    if jitter then
      Det_hash.jitter
        (Det_hash.mix_int p.jitter_seed salt)
        ~amplitude:jitter_amplitude
    else 1.0
  in
  {
    Hextime_obs.Attribution.compute = (f *. rcomp_full) +. rcomp_last;
    global_mem = (f *. rio_full) +. rio_last;
    shared_mem = 0.0;
    sync = 0.0;
    launch = arch.launch_overhead_s;
    jitter = p.base_s *. (jf -. 1.0);
  }

let run_kernel_salted ?(jitter = true) ~salt arch (k : Kernel.t) =
  match price arch k with
  | Error _ as e -> e
  | Ok p -> Ok (priced_stats ~jitter ~salt arch p)

let run_kernel ?jitter arch k = run_kernel_salted ?jitter ~salt:0 arch k

let run_kernel_exact ?(jitter = true) arch (k : Kernel.t) =
  Metrics.incr price_counter;
  match kernel_setup arch k with
  | Error _ as e -> e
  | Ok (_req, occ) ->
      let resident = occ.blocks_per_sm in
      let spilled = occ.regs_spilled_per_thread in
      (* per-class (cost, chunks): computed once and shared between the
         dispatch below and the averaged stats *)
      let costs = class_costs arch ~resident ~spilled k in
      (* materialise per-block (cost, chunks) pairs *)
      let blocks =
        List.concat_map
          (fun ((w : Workload.t), count, cost) ->
            List.init count (fun _ -> (cost, w.chunks)))
          costs
      in
      (* greedy dispatch: each block goes to the least-loaded SM and retires
         at the SM's steady-state rate *)
      let service ((io, comp), chunks) =
        let per_chunk = if resident = 1 then io +. comp else max io comp in
        per_chunk *. float_of_int chunks
      in
      let sm_clock = Array.make arch.n_sm 0.0 in
      List.iter
        (fun b ->
          let best = ref 0 in
          for i = 1 to arch.n_sm - 1 do
            if sm_clock.(i) < sm_clock.(!best) then best := i
          done;
          sm_clock.(!best) <- sm_clock.(!best) +. service b)
        blocks;
      let fill =
        match (blocks, resident) with
        | _, 1 | [], _ -> 0.0
        | ((io, comp), _) :: _, _ -> min io comp
      in
      let makespan = Array.fold_left max 0.0 sm_clock +. fill in
      let io, comp, chunks = average_of_class_costs k costs in
      let j = if jitter then jitter_factor arch k.label ~salt:0 else 1.0 in
      let time = (arch.launch_overhead_s +. makespan) *. j in
      Ok (stats_of_time k occ ~io ~comp ~chunks time)

let price_sequence arch kernels =
  if kernels = [] then Error "empty kernel sequence"
  else if List.exists (fun (_, n) -> n <= 0) kernels then
    Error "non-positive kernel repeat count"
  else
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | (k, count) :: rest -> (
          match price arch k with
          | Error _ as e -> e
          | Ok p -> go ((p, count) :: acc) rest)
    in
    go [] kernels

let replay ?(jitter = true) ~salt arch priced =
  Metrics.incr replay_counter;
  let rec go acc_time acc_stats launches = function
    | [] ->
        {
          total_s = acc_time;
          kernel_launches = launches;
          kernels = List.rev acc_stats;
        }
    | (p, count) :: rest ->
        let st = priced_stats ~jitter ~salt arch p in
        go
          (acc_time +. (st.time_s *. float_of_int count))
          (st :: acc_stats) (launches + count) rest
  in
  go 0.0 [] 0 priced

let replay_total ?(jitter = true) ~salt arch priced =
  Metrics.incr replay_counter;
  List.fold_left
    (fun acc (p, count) ->
      acc +. (priced_time ~jitter ~salt arch p *. float_of_int count))
    0.0 priced

let run_sequence_salted ?(jitter = true) ~salt arch kernels =
  match price_sequence arch kernels with
  | Error _ as e -> e
  | Ok priced -> Ok (replay ~jitter ~salt arch priced)

let run_sequence ?jitter arch kernels =
  run_sequence_salted ?jitter ~salt:0 arch kernels

let measure_priced ?(runs = 5) arch priced =
  if runs <= 0 then Error "measure: runs must be positive"
  else
    let rec go best salt =
      if salt >= runs then Ok best
      else go (min best (replay_total ~jitter:true ~salt arch priced)) (salt + 1)
    in
    go infinity 0

let measure ?(runs = 5) arch kernels =
  if runs <= 0 then Error "measure: runs must be positive"
  else
    match price_sequence arch kernels with
    | Error _ as e -> e
    | Ok priced -> measure_priced ~runs arch priced
