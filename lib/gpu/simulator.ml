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

(* --- the noise seed ----------------------------------------------------- *)

(* A kernel's noise seed is the hash of its architecture's name and then
   its label; a salted run mixes the salt into it.  Every label of a tile
   shape's configurations starts with the shape's label prefix, so the
   hash state after the name and the prefix can be computed once per shape
   and each pricing folds only the label's tail.  The fold is sequential,
   so the seed is the same either way. *)
type seed_prefix = {
  arch_name : string;
  prefix : string;
  state : Det_hash.t;  (* the name, then the prefix, not finalised *)
}

let seed_prefix (arch : Arch.t) prefix =
  {
    arch_name = arch.name;
    prefix;
    state = Det_hash.fold_bytes (Det_hash.create arch.name) prefix ~pos:0;
  }

(* The one definition of the seed: every path reads it off [price]. *)
let noise_seed (arch : Arch.t) pre label =
  if not (String.equal pre.arch_name arch.name) then
    invalid_arg "Simulator.price: seed prefix of another architecture";
  if not (String.starts_with ~prefix:pre.prefix label) then
    invalid_arg "Simulator.price: label does not start with the seed prefix";
  Det_hash.finalise
    (Det_hash.fold_bytes pre.state label ~pos:(String.length pre.prefix))

let jitter_factor seed ~salt =
  Det_hash.jitter (Det_hash.mix_int seed salt) ~amplitude:jitter_amplitude

(* --- costs ---------------------------------------------------------------- *)

let block_io arch ~resident (w : Workload.t) =
  Memory.block_transfer_s arch ~concurrent_blocks:resident w.input
  +. Memory.block_transfer_s arch ~concurrent_blocks:resident w.output

let block_cost arch ~resident (w : Workload.t) ~spilled_regs =
  let io = block_io arch ~resident w in
  let compute = Compute.chunk_seconds arch w ~spilled_regs ~resident in
  (io, compute)

(* Wall time for one SM to retire a round of [j] co-resident blocks of
   [chunks] chunks each, at per-chunk costs [io] and [comp].  The GPU's
   block scheduler streams blocks: as soon as a resident block retires the
   next one launches, so with j >= 2 the IO of one chunk overlaps the
   compute of another and the SM's steady-state period per chunk is
   max(io, compute); the first chunk's transfer is exposed as pipeline
   fill.  A round of one block serialises its phases — the truthful
   counterpart of Equations 10/12 and 16/28/29.  Inlined, so [price]'s
   floats stay unboxed. *)
let[@inline] round_time ~io ~comp ~chunks j =
  if j = 0 then 0.0
  else
    let n = float_of_int (chunks * j) in
    let total_io = io *. n and total_comp = comp *. n in
    if j = 1 then total_io +. total_comp
    else
      (if total_io >= total_comp then total_io else total_comp)
      +. if io <= comp then io else comp

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
      (* the noise seed over (architecture, label), so a salted replay only
         mixes in the salt *)
}

let price ?prefix (arch : Arch.t) (k : Kernel.t) =
  Metrics.incr price_counter;
  let jitter_seed =
    noise_seed arch
      (match prefix with Some pre -> pre | None -> seed_prefix arch "")
      k.label
  in
  let req = Kernel.max_request k in
  let occ = Occupancy.calculate arch req in
  if occ.blocks_per_sm = 0 then Error (infeasible occ req)
  else
    let resident = occ.blocks_per_sm in
    let spilled = occ.regs_spilled_per_thread in
    let blocks = Kernel.total_blocks k in
    (* Average per-chunk (io, compute) and the chunk count over the block
       population, each class costed once; kernels are overwhelmingly
       uniform so this loses almost nothing and keeps the cost independent
       of block count.  A loop over float refs, so nothing is boxed per
       class. *)
    let total = float_of_int blocks in
    let io = ref 0.0 and comp = ref 0.0 and chunks = ref 0.0 in
    let classes = ref k.blocks in
    while not (List.is_empty !classes) do
      match !classes with
      | [] -> ()
      | ((w : Workload.t), count) :: rest ->
          let f = float_of_int count /. total in
          io := !io +. (block_io arch ~resident w *. f);
          comp :=
            !comp
            +. (Compute.chunk_seconds arch w ~spilled_regs:spilled ~resident
               *. f);
          chunks := !chunks +. (float_of_int w.chunks *. f);
          classes := rest
    done;
    let io = !io and comp = !comp and chunks = !chunks in
    (* Stencil blocks are near-uniform and the warp scheduler shares the
       SM fairly, so the [resident] co-resident blocks of a round finish
       together and the next round starts together: execution is
       round-synchronised.  The last round holds whatever is left. *)
    let per_block = int_of_float (Float.round chunks) in
    let capacity = arch.n_sm * resident in
    let body =
      (float_of_int (blocks / capacity)
      *. round_time ~io ~comp ~chunks:per_block resident)
      +. round_time ~io ~comp ~chunks:per_block
           (Ints.ceil_div (blocks mod capacity) arch.n_sm)
    in
    Ok
      {
        kernel = k;
        occ;
        avg_io = io;
        avg_comp = comp;
        avg_chunks = chunks;
        base_s = arch.launch_overhead_s +. body;
        jitter_seed;
      }

(* One salted run of a priced kernel.  Det_hash states are pure folds, so
   mixing the salt into the stored seed is the exact per-salt value.
   Inlined, so [measure_priced]'s loop keeps it unboxed. *)
let[@inline] salted_time p ~salt = p.base_s *. jitter_factor p.jitter_seed ~salt

let priced_time ?(jitter = true) ~salt _arch p =
  if jitter then salted_time p ~salt else p.base_s

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
      let n = float_of_int (chunks * j) in
      let tio = io *. n and tcomp = comp *. n in
      (* a round of one block per SM serialises, as [round_time] prices
         it, even when more blocks could be resident *)
      if j = 1 then (tio, tcomp)
      else
        let fill = if io <= comp then io else comp in
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
  let jf = if jitter then jitter_factor p.jitter_seed ~salt else 1.0 in
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

(* The priced kernel supplies the occupancy, the averaged stats and the
   noise seed; only the schedule differs from the closed form. *)
let run_kernel_exact ?(jitter = true) (arch : Arch.t) (k : Kernel.t) =
  match price arch k with
  | Error _ as e -> e
  | Ok p ->
      let resident = p.occ.blocks_per_sm in
      let spilled_regs = p.occ.regs_spilled_per_thread in
      (* materialise per-block (cost, chunks) pairs, each class costed
         once *)
      let blocks =
        List.concat_map
          (fun ((w : Workload.t), count) ->
            let cost = block_cost arch ~resident w ~spilled_regs in
            List.init count (fun _ -> (cost, w.chunks)))
          k.blocks
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
      let j = if jitter then jitter_factor p.jitter_seed ~salt:0 else 1.0 in
      let time = (arch.launch_overhead_s +. makespan) *. j in
      Ok
        (stats_of_time k p.occ ~io:p.avg_io ~comp:p.avg_comp
           ~chunks:p.avg_chunks time)

let price_sequence ?prefix arch kernels =
  if kernels = [] then Error "empty kernel sequence"
  else if List.exists (fun (_, n) -> n <= 0) kernels then
    Error "non-positive kernel repeat count"
  else
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | (k, count) :: rest -> (
          match price ?prefix arch k with
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

let run_sequence_salted ?(jitter = true) ~salt arch kernels =
  match price_sequence arch kernels with
  | Error _ as e -> e
  | Ok priced -> Ok (replay ~jitter ~salt arch priced)

let run_sequence ?jitter arch kernels =
  run_sequence_salted ?jitter ~salt:0 arch kernels

(* The minimum over [runs] salted replays, each the sum of its kernels'
   times in program order, as [replay] totals them: plain loops over float
   refs, so a replay allocates nothing but its jitter factors. *)
let measure_priced ?(runs = 5) _arch priced =
  if runs <= 0 then Error "measure: runs must be positive"
  else begin
    let best = ref infinity in
    for salt = 0 to runs - 1 do
      Metrics.incr replay_counter;
      let total = ref 0.0 and rest = ref priced in
      while not (List.is_empty !rest) do
        match !rest with
        | [] -> ()
        | (p, count) :: tl ->
            total := !total +. (salted_time p ~salt *. float_of_int count);
            rest := tl
      done;
      (* [best := min !best !total], with a float comparison *)
      if not (!best <= !total) then best := !total
    done;
    Ok !best
  end

let measure ?(runs = 5) arch kernels =
  if runs <= 0 then Error "measure: runs must be positive"
  else
    match price_sequence arch kernels with
    | Error _ as e -> e
    | Ok priced -> measure_priced ~runs arch priced
