(* The GPU simulator substrate: architecture presets, occupancy, memory
   timing, compute timing, kernels and the simulator's two paths. *)

module Gpu = Hextime_gpu
module Arch = Gpu.Arch
module Occ = Gpu.Occupancy
module Mem = Gpu.Memory
module Cmp = Gpu.Compute
module W = Gpu.Workload
module K = Gpu.Kernel
module Sim = Gpu.Simulator

let arch = Arch.gtx980

let test_presets () =
  (* Table 2 *)
  Alcotest.(check int) "gtx980 SMs" 16 Arch.gtx980.Arch.n_sm;
  Alcotest.(check int) "titanx SMs" 24 Arch.titanx.Arch.n_sm;
  Alcotest.(check int) "nV" 128 Arch.gtx980.Arch.n_vector;
  Alcotest.(check int) "MSM words (96KB)" 24576 Arch.gtx980.Arch.shared_mem_per_sm;
  Alcotest.(check int) "RSM" 65536 Arch.gtx980.Arch.registers_per_sm;
  Alcotest.(check int) "banks" 32 Arch.gtx980.Arch.shared_banks;
  Alcotest.(check int) "MTBSM" 32 Arch.gtx980.Arch.max_blocks_per_sm;
  Alcotest.(check string) "find" "titanx" (Arch.find "titanx").Arch.name;
  Alcotest.check_raises "unknown arch" Not_found (fun () ->
      ignore (Arch.find "volta"))

let test_arch_derived () =
  let c = Arch.cycle_s arch in
  Alcotest.(check bool) "cycle ~0.89ns" true (c > 8.8e-10 && c < 9.0e-10);
  let w = Arch.word_transfer_s arch in
  (* 4 bytes at 60% of 224 GB/s *)
  Alcotest.(check bool) "word cost" true (w > 2.9e-11 && w < 3.1e-11)

let test_pointcost () =
  let b2 = { Gpu.Pointcost.flops = 9; loads = 5; transcendentals = 0; rank = 2; double = false } in
  let b3 = { b2 with Gpu.Pointcost.rank = 3 } in
  Alcotest.(check bool) "3D addressing dominates" true
    (Gpu.Pointcost.cycles b3 > Gpu.Pointcost.cycles b2 +. 90.0);
  let grad = { Gpu.Pointcost.flops = 16; loads = 4; transcendentals = 1; rank = 2; double = false } in
  Alcotest.(check bool) "transcendental costs extra" true
    (Gpu.Pointcost.cycles grad > Gpu.Pointcost.cycles b2);
  Alcotest.check_raises "negative flops rejected"
    (Invalid_argument "Pointcost.cycles: negative operation count") (fun () ->
      ignore (Gpu.Pointcost.cycles { b2 with Gpu.Pointcost.flops = -1 }))

let occ_req threads shared regs =
  { Occ.threads; shared_words = shared; regs_per_thread = regs }

let test_occupancy_limits () =
  (* shared-memory limited: 48KB block -> 2 per SM *)
  let r = Occ.calculate arch (occ_req 256 12288 32) in
  Alcotest.(check int) "smem k=2" 2 r.Occ.blocks_per_sm;
  Alcotest.(check bool) "limited by smem" true (r.Occ.limiting = Occ.Shared_memory);
  (* thread limited: 1024 threads -> 2 per SM *)
  let r = Occ.calculate arch (occ_req 1024 128 32) in
  Alcotest.(check int) "thread k=2" 2 r.Occ.blocks_per_sm;
  Alcotest.(check bool) "limited by threads" true (r.Occ.limiting = Occ.Threads);
  (* register limited: 128 regs x 512 threads = 64k *)
  let r = Occ.calculate arch (occ_req 512 128 128) in
  Alcotest.(check int) "regs k=1" 1 r.Occ.blocks_per_sm;
  Alcotest.(check bool) "limited by regs" true (r.Occ.limiting = Occ.Registers);
  (* block-slot limited *)
  let r = Occ.calculate arch (occ_req 32 16 8) in
  Alcotest.(check int) "slots k=32" 32 r.Occ.blocks_per_sm

let test_occupancy_infeasible_and_spill () =
  let r = Occ.calculate arch (occ_req 2048 128 16) in
  Alcotest.(check int) "too many threads" 0 r.Occ.blocks_per_sm;
  let r = Occ.calculate arch (occ_req 256 20000 16) in
  Alcotest.(check int) "block exceeds 48KB" 0 r.Occ.blocks_per_sm;
  let r = Occ.calculate arch (occ_req 128 128 300) in
  Alcotest.(check int) "spill beyond cap" 45 r.Occ.regs_spilled_per_thread;
  Alcotest.(check bool) "still schedulable" true (r.Occ.blocks_per_sm >= 1)

let test_memory_coalescing () =
  Alcotest.(check (float 1e-9)) "warp multiple is perfect" 1.0
    (Mem.coalescing_factor arch ~run_length:64);
  Alcotest.(check bool) "short runs waste" true
    (Mem.coalescing_factor arch ~run_length:4 > 2.0);
  Alcotest.(check bool) "ragged tail" true
    (Mem.coalescing_factor arch ~run_length:48 > 1.0)

let test_memory_transfer () =
  let t words = Mem.block_transfer_s arch ~concurrent_blocks:1 { Mem.words; run_length = 64 } in
  Alcotest.(check (float 0.0)) "zero words free" 0.0 (t 0);
  Alcotest.(check bool) "latency floor" true (t 1 > 2.5e-7);
  (* doubling large transfers roughly doubles the streaming part *)
  let big = t 100_000 and huge = t 200_000 in
  Alcotest.(check bool) "linear in words" true
    (huge /. big > 1.9 && huge /. big < 2.1);
  Alcotest.(check bool) "congestion slows" true
    (Mem.block_transfer_s arch ~concurrent_blocks:4 { Mem.words = 1000; run_length = 64 }
     > t 1000)

let body = { Gpu.Pointcost.flops = 9; loads = 5; transcendentals = 0; rank = 2; double = false }

let workload ?(threads = 256) ?(shared = 4000) ?(regs = 32) ?(chunks = 4)
    ?(io = 2048) ?(rows = [ { W.points = 1024; repeats = 4 } ]) () =
  W.v ~label:"test" ~threads ~shared_words:shared ~regs_per_thread:regs ~body
    ~rows
    ~input:{ Mem.words = io; run_length = 64 }
    ~output:{ Mem.words = io; run_length = 64 }
    ~row_stride:73 ~chunks

let test_smem_conflicts () =
  Alcotest.(check (float 1e-9)) "odd stride conflict-free" 1.0
    (Gpu.Smem.conflict_factor arch ~row_stride:65);
  Alcotest.(check bool) "bank-multiple stride conflicts" true
    (Gpu.Smem.conflict_factor arch ~row_stride:64 > 1.0);
  Alcotest.(check bool) "degree grows with gcd" true
    (Gpu.Smem.conflict_factor arch ~row_stride:32
    > Gpu.Smem.conflict_factor arch ~row_stride:16);
  Alcotest.check_raises "bad stride"
    (Invalid_argument "Smem.conflict_factor: stride <= 0") (fun () ->
      ignore (Gpu.Smem.conflict_factor arch ~row_stride:0))

let test_workload_accessors () =
  let w = workload () in
  Alcotest.(check int) "points per chunk" 4096 (W.points_per_chunk w);
  Alcotest.(check int) "total points" 16384 (W.total_points w);
  Alcotest.(check int) "row count" 4 (W.row_count w);
  let req = W.occupancy_request w in
  Alcotest.(check int) "request threads" 256 req.Occ.threads

let test_workload_validation () =
  Alcotest.check_raises "no rows" (Invalid_argument "Workload.v: no rows")
    (fun () -> ignore (workload ~rows:[] ()))

let test_compute_lane_iterations () =
  Alcotest.(check int) "full block" 8
    (Cmp.lane_iterations arch ~threads:256 ~points:1024);
  (* a 64-thread block can only use 64 lanes *)
  Alcotest.(check int) "narrow block" 16
    (Cmp.lane_iterations arch ~threads:64 ~points:1024);
  Alcotest.(check int) "tiny row still one round" 1
    (Cmp.lane_iterations arch ~threads:256 ~points:3)

let test_compute_penalties () =
  Alcotest.(check (float 1e-9)) "8 warps hide fully" 1.0
    (Cmp.latency_hiding_factor arch ~threads:256);
  Alcotest.(check bool) "few warps stall" true
    (Cmp.latency_hiding_factor arch ~threads:64 > 1.0);
  (* resident blocks absorb barrier drain: k=4 rows cost less than k=1 *)
  let w = workload () in
  let r1 = Cmp.row_seconds arch w ~spilled_regs:0 ~resident:1 ~points:1024 in
  let r4 = Cmp.row_seconds arch w ~spilled_regs:0 ~resident:4 ~points:1024 in
  Alcotest.(check bool) "drain amortised" true (r4 < r1);
  (* spills add cost *)
  let s = Cmp.row_seconds arch w ~spilled_regs:16 ~resident:1 ~points:1024 in
  Alcotest.(check bool) "spills slow" true (s > r1)

(* each guard names the function that raised it *)
let test_compute_guards_name_their_function () =
  let w = workload () in
  Alcotest.check_raises "lane_iterations"
    (Invalid_argument "Compute.lane_iterations") (fun () ->
      ignore (Cmp.lane_iterations arch ~threads:256 ~points:0));
  Alcotest.check_raises "row_seconds"
    (Invalid_argument "Compute.row_seconds: resident < 1") (fun () ->
      ignore (Cmp.row_seconds arch w ~spilled_regs:0 ~resident:0 ~points:64));
  Alcotest.check_raises "chunk_seconds"
    (Invalid_argument "Compute.chunk_seconds: resident < 1") (fun () ->
      ignore (Cmp.chunk_seconds arch w ~spilled_regs:0 ~resident:0))

let test_kernel_accessors () =
  let w = workload () in
  let k = K.v ~label:"k" ~blocks:[ (w, 10) ] in
  Alcotest.(check int) "blocks" 10 (K.total_blocks k);
  Alcotest.(check int) "points" (10 * 16384) (K.total_points k);
  Alcotest.check_raises "empty kernel" (Invalid_argument "Kernel.v: no blocks")
    (fun () -> ignore (K.v ~label:"e" ~blocks:[]))

let run_ok r =
  match r with Ok x -> x | Error e -> Alcotest.failf "simulator error: %s" e

let test_simulator_basics () =
  let w = workload () in
  let k = K.v ~label:"k" ~blocks:[ (w, 64) ] in
  let st = run_ok (Sim.run_kernel ~jitter:false arch k) in
  Alcotest.(check bool) "positive time" true (st.Sim.time_s > 0.0);
  Alcotest.(check int) "blocks" 64 st.Sim.blocks;
  Alcotest.(check bool) "k >= 1" true (st.Sim.resident_blocks >= 1);
  (* more blocks, more time *)
  let k2 = K.v ~label:"k" ~blocks:[ (w, 128) ] in
  let st2 = run_ok (Sim.run_kernel ~jitter:false arch k2) in
  Alcotest.(check bool) "monotone in blocks" true (st2.Sim.time_s > st.Sim.time_s)

let test_simulator_infeasible () =
  let w = workload ~threads:2048 () in
  let k = K.v ~label:"k" ~blocks:[ (w, 4) ] in
  match Sim.run_kernel arch k with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "infeasible kernel accepted"

let test_simulator_determinism () =
  let w = workload () in
  let k = K.v ~label:"det" ~blocks:[ (w, 64) ] in
  let a = run_ok (Sim.run_kernel arch k) in
  let b = run_ok (Sim.run_kernel arch k) in
  Alcotest.(check (float 0.0)) "same jittered time" a.Sim.time_s b.Sim.time_s

let test_exact_matches_fast () =
  (* on uniform blocks the closed form and the list scheduler agree *)
  List.iter
    (fun blocks ->
      let w = workload () in
      let k = K.v ~label:"x" ~blocks:[ (w, blocks) ] in
      let fast = run_ok (Sim.run_kernel ~jitter:false arch k) in
      let exact = run_ok (Sim.run_kernel_exact ~jitter:false arch k) in
      let ratio = fast.Sim.time_s /. exact.Sim.time_s in
      Alcotest.(check bool)
        (Printf.sprintf "blocks=%d ratio %.3f in [0.8, 1.35]" blocks ratio)
        true
        (ratio > 0.8 && ratio < 1.35))
    [ 16; 32; 64; 100; 256 ]

let test_run_sequence () =
  let w = workload () in
  let k = K.v ~label:"s" ~blocks:[ (w, 32) ] in
  let one = run_ok (Sim.run_sequence ~jitter:false arch [ (k, 1) ]) in
  let ten = run_ok (Sim.run_sequence ~jitter:false arch [ (k, 10) ]) in
  Alcotest.(check (float 1e-12)) "repeats scale linearly"
    (10.0 *. one.Sim.total_s) ten.Sim.total_s;
  Alcotest.(check int) "launches" 10 ten.Sim.kernel_launches;
  match Sim.run_sequence arch [] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty sequence accepted"

let test_measure_min_of_runs () =
  let w = workload () in
  let k = K.v ~label:"m" ~blocks:[ (w, 32) ] in
  let m = run_ok (Sim.measure ~runs:5 arch [ (k, 4) ]) in
  let nojitter = run_ok (Sim.run_sequence ~jitter:false arch [ (k, 4) ]) in
  (* min of jittered runs sits within the jitter amplitude of the clean time *)
  Alcotest.(check bool) "within jitter band" true
    (m > nojitter.Sim.total_s *. 0.97 && m < nojitter.Sim.total_s *. 1.03);
  let single = run_ok (Sim.measure ~runs:1 arch [ (k, 4) ]) in
  Alcotest.(check bool) "min over more runs is <=" true (m <= single)

let test_hyperthreading_overlap () =
  (* with k = 2 resident, IO overlaps compute: time < serial sum *)
  let w = workload ~shared:12288 ~io:20000 () in
  let k = K.v ~label:"ht" ~blocks:[ (w, 32) ] in
  let st = run_ok (Sim.run_kernel ~jitter:false arch k) in
  Alcotest.(check int) "k=2" 2 st.Sim.resident_blocks;
  let io, comp =
    Sim.block_cost arch ~resident:2 w ~spilled_regs:0
  in
  let serial = 2.0 *. 4.0 *. (io +. comp) (* 2 blocks/SM x 4 chunks *) in
  Alcotest.(check bool) "overlap beats serial" true (st.Sim.time_s < serial)

let eventsim_workload ?(threads = 256) points repeats =
  W.v ~label:"ev" ~threads ~shared_words:4000 ~regs_per_thread:32 ~body
    ~rows:[ { W.points; repeats } ]
    ~input:{ Mem.words = 0; run_length = 32 }
    ~output:{ Mem.words = 0; run_length = 32 }
    ~row_stride:73 ~chunks:1

let test_eventsim_agreement () =
  (* the warp-level event simulation independently confirms the closed-form
     compute model across thread counts and row sizes *)
  List.iter
    (fun (threads, points, repeats) ->
      let w = eventsim_workload ~threads points repeats in
      let ratio = Gpu.Eventsim.agreement arch w in
      Alcotest.(check bool)
        (Printf.sprintf "thr=%d pts=%d: ratio %.2f in [0.7, 1.5]" threads
           points ratio)
        true
        (ratio > 0.7 && ratio < 1.5))
    [ (256, 1024, 8); (256, 4096, 4); (128, 1024, 8); (64, 1024, 8);
      (512, 2048, 8); (32, 512, 6); (256, 1024, 4) ]

let test_eventsim_latency_emerges () =
  (* few warps leave schedulers idle; many warps saturate them *)
  let starved = Gpu.Eventsim.chunk_stats arch (eventsim_workload ~threads:32 1024 4) in
  let saturated = Gpu.Eventsim.chunk_stats arch (eventsim_workload ~threads:512 1024 4) in
  Alcotest.(check bool) "starved stalls" true
    (starved.Gpu.Eventsim.stall_fraction > 0.5);
  Alcotest.(check bool) "saturated flows" true
    (saturated.Gpu.Eventsim.stall_fraction < 0.1);
  Alcotest.(check bool) "stalls cost time" true
    (starved.Gpu.Eventsim.cycles > saturated.Gpu.Eventsim.cycles)

let test_eventsim_work_conservation () =
  (* issued instructions = warp-iterations * instructions per point batch *)
  let w = eventsim_workload ~threads:256 1024 3 in
  let st = Gpu.Eventsim.chunk_stats arch w in
  let instrs_per_point =
    int_of_float (Float.round (Gpu.Pointcost.cycles body))
  in
  Alcotest.(check int) "issued"
    (3 * (1024 / 32) * instrs_per_point)
    st.Gpu.Eventsim.issued

let test_priced_replay_identity () =
  (* the priced representation is an exact factoring: replaying a salt
     must be bit-identical to pricing the whole sequence at that salt *)
  let k1 = K.v ~label:"a" ~blocks:[ (workload (), 32) ] in
  let k2 =
    K.v ~label:"b" ~blocks:[ (workload ~threads:128 ~io:8192 (), 48) ]
  in
  let seq = [ (k1, 4); (k2, 2) ] in
  let priced =
    match Sim.price_sequence arch seq with
    | Ok p -> p
    | Error e -> Alcotest.failf "price_sequence: %s" e
  in
  for salt = 0 to 9 do
    let fresh = run_ok (Sim.run_sequence_salted ~salt arch seq) in
    let replayed = Sim.replay ~salt arch priced in
    Alcotest.(check (float 0.0))
      (Printf.sprintf "salt %d total" salt)
      fresh.Sim.total_s replayed.Sim.total_s;
    List.iter2
      (fun (a : Sim.kernel_stats) (b : Sim.kernel_stats) ->
        Alcotest.(check (float 0.0))
          (Printf.sprintf "salt %d kernel time" salt)
          a.Sim.time_s b.Sim.time_s;
        Alcotest.(check int) "resident" a.Sim.resident_blocks
          b.Sim.resident_blocks)
      fresh.Sim.kernels replayed.Sim.kernels
  done;
  (* the measurement protocol is exactly the min over the salted runs *)
  let m = run_ok (Sim.measure ~runs:5 arch seq) in
  let explicit =
    List.fold_left
      (fun best salt ->
        min best (run_ok (Sim.run_sequence_salted ~salt arch seq)).Sim.total_s)
      infinity [ 0; 1; 2; 3; 4 ]
  in
  Alcotest.(check (float 0.0)) "measure = min of salted runs" explicit m

let test_priced_counts_once () =
  (* pricing is per kernel, not per run: a 5-run measurement of a 2-kernel
     sequence performs exactly 2 pricings *)
  let k1 = K.v ~label:"c1" ~blocks:[ (workload (), 16) ] in
  let k2 = K.v ~label:"c2" ~blocks:[ (workload ~threads:64 (), 16) ] in
  let before = Sim.invocations () in
  ignore (run_ok (Sim.measure ~runs:5 arch [ (k1, 3); (k2, 7) ]));
  Alcotest.(check int) "one pricing per kernel" 2 (Sim.invocations () - before)

let eventsim_check_fast_eq_slow w =
  let f = Gpu.Eventsim.chunk_stats arch w in
  let s = Gpu.Eventsim.chunk_stats_slow arch w in
  let tag = Format.asprintf "%a" W.pp w in
  Alcotest.(check (float 0.0)) ("cycles " ^ tag) s.Gpu.Eventsim.cycles
    f.Gpu.Eventsim.cycles;
  Alcotest.(check int) ("issued " ^ tag) s.Gpu.Eventsim.issued
    f.Gpu.Eventsim.issued;
  Alcotest.(check (float 0.0)) ("stall " ^ tag) s.Gpu.Eventsim.stall_fraction
    f.Gpu.Eventsim.stall_fraction

let test_eventsim_fast_slow_degenerate () =
  (* hand-picked corners: fewer warps than schedulers, single-point rows,
     long rows that trigger the steady-state jump, repeated and mixed rows *)
  List.iter eventsim_check_fast_eq_slow
    [
      eventsim_workload ~threads:32 1 1 (* 1 warp vs 4 schedulers *);
      eventsim_workload ~threads:32 1 17;
      eventsim_workload ~threads:64 3 5;
      eventsim_workload ~threads:256 1 1;
      eventsim_workload ~threads:256 65536 1 (* long row: jump path *);
      eventsim_workload ~threads:512 16384 4;
      eventsim_workload ~threads:96 4096 3 (* partial warp *);
      workload ~rows:
        [
          { W.points = 1; repeats = 1 };
          { W.points = 4096; repeats = 7 };
          { W.points = 33; repeats = 2 };
          { W.points = 4096; repeats = 7 } (* repeated row: memo path *);
        ]
        ();
    ]

let prop_eventsim_fast_eq_slow =
  (* the steady-state fast-forward and the row memo are exact shortcuts:
     on any valid workload both paths produce bit-identical stats *)
  let gen =
    QCheck.Gen.(
      let* threads = oneofl [ 32; 48; 64; 96; 128; 256; 512 ] in
      let* n_rows = int_range 1 4 in
      let* rows =
        list_repeat n_rows
          (let* points = oneofl [ 1; 2; 33; 512; 4096; 20000 ] in
           let* repeats = int_range 1 12 in
           return { W.points; repeats })
      in
      return (threads, rows))
  in
  let print (threads, rows) =
    Printf.sprintf "threads=%d rows=[%s]" threads
      (String.concat "; "
         (List.map
            (fun r -> Printf.sprintf "%dx%d" r.W.points r.W.repeats)
            rows))
  in
  QCheck.Test.make ~name:"eventsim fast path is bit-identical to slow"
    ~count:60
    (QCheck.make ~print gen)
    (fun (threads, rows) ->
      let w = workload ~threads ~rows () in
      let f = Gpu.Eventsim.chunk_stats arch w in
      let s = Gpu.Eventsim.chunk_stats_slow arch w in
      f.Gpu.Eventsim.cycles = s.Gpu.Eventsim.cycles
      && f.Gpu.Eventsim.issued = s.Gpu.Eventsim.issued
      && f.Gpu.Eventsim.stall_fraction = s.Gpu.Eventsim.stall_fraction)

let prop_simulator_monotone_in_io =
  QCheck.Test.make ~name:"kernel time is monotone in io volume" ~count:50
    QCheck.(int_range 1 50)
    (fun scale ->
      let t io =
        let w = workload ~io () in
        let k = K.v ~label:"mono" ~blocks:[ (w, 64) ] in
        (run_ok (Sim.run_kernel ~jitter:false arch k)).Sim.time_s
      in
      t (1024 * scale) <= t (1024 * (scale + 1)))

(* Occupancy answers by an architecture's numbers: a copy of a preset that
   keeps the preset's name but not its shared memory gets its own answer. *)
let test_occupancy_memo_by_numbers () =
  let req = occ_req 256 6000 32 in
  let half = { arch with Arch.shared_mem_per_sm = arch.Arch.shared_mem_per_sm / 2 } in
  Alcotest.(check int) "preset" 4 (Occ.calculate arch req).Occ.blocks_per_sm;
  Alcotest.(check int) "same name, half the shared memory" 2
    (Occ.calculate half req).Occ.blocks_per_sm;
  Alcotest.(check int) "preset again" 4 (Occ.calculate arch req).Occ.blocks_per_sm

let memo_counts () =
  let snap = Hextime_obs.Metrics.snapshot () in
  let count name =
    Option.value ~default:0 (Hextime_obs.Metrics.find_counter snap name)
  in
  (count "occupancy.memo_hit", count "occupancy.memo_miss")

(* There is no memo: every calculation, repeated or not, bumps
   [occupancy.memo_miss] once, and [occupancy.memo_hit] never moves. *)
let test_occupancy_memo_counts () =
  let reqs = List.init 10 (fun i -> occ_req 7 (100_003 + i) 9) in
  let h0, m0 = memo_counts () in
  List.iter (fun r -> ignore (Occ.calculate arch r)) (reqs @ reqs @ reqs);
  let h1, m1 = memo_counts () in
  Alcotest.(check int) "one occupancy.memo_miss per call" 30 (m1 - m0);
  Alcotest.(check int) "no occupancy.memo_hit" 0 (h1 - h0)

(* Two domains calculating at once get the answers one domain gets. *)
let test_occupancy_memo_domains () =
  let n = 300 in
  (* distinct: within each run of 7 consecutive i the thread counts differ *)
  let reqs =
    Array.init n (fun i ->
        occ_req (32 * (1 + (i mod 32))) (97 * (1 + (i / 7))) (16 + (i mod 48)))
  in
  let forward = Array.init n Fun.id and backward = Array.init n (fun i -> n - 1 - i) in
  let answer order = Array.map (fun i -> Occ.calculate arch reqs.(i)) order in
  let alone = answer forward in
  let passes = 5 in
  let worker order = Domain.spawn (fun () -> List.init passes (fun _ -> answer order)) in
  let a = worker forward and b = worker backward in
  let results = [ (forward, Domain.join a); (backward, Domain.join b) ] in
  List.iter
    (fun (order, runs) ->
      List.iter
        (Array.iteri (fun k r ->
             if r <> alone.(order.(k)) then
               Alcotest.failf "request %d: answer differs from the single-domain one" order.(k)))
        runs)
    results

(* The fold [Occupancy.calculate] computed before it became straight-line
   arithmetic: the first of the four limits, in this order, to reach the
   least block count is the binding one. *)
let reference_occupancy (arch : Arch.t) (req : Occ.request) =
  let spilled = max 0 (req.Occ.regs_per_thread - arch.Arch.max_regs_per_thread) in
  let regs_held = min req.Occ.regs_per_thread arch.Arch.max_regs_per_thread in
  let candidates =
    [
      (Occ.Threads, arch.Arch.max_threads_per_sm / req.Occ.threads);
      (Occ.Blocks, arch.Arch.max_blocks_per_sm);
      ( Occ.Shared_memory,
        if req.Occ.shared_words = 0 then arch.Arch.max_blocks_per_sm
        else if req.Occ.shared_words > arch.Arch.shared_mem_per_block then 0
        else arch.Arch.shared_mem_per_sm / req.Occ.shared_words );
      ( Occ.Registers,
        if regs_held = 0 then arch.Arch.max_blocks_per_sm
        else arch.Arch.registers_per_sm / (regs_held * req.Occ.threads) );
    ]
  in
  let candidates =
    if req.Occ.threads > arch.Arch.max_threads_per_block then [ (Occ.Threads, 0) ]
    else candidates
  in
  let limiting, blocks =
    List.fold_left
      (fun (bl, bb) (l, b) -> if b < bb then (l, b) else (bl, bb))
      (Occ.Blocks, max_int) candidates
  in
  { Occ.blocks_per_sm = max 0 blocks; limiting; regs_spilled_per_thread = spilled }

let prop_occupancy_matches_fold =
  let open QCheck.Gen in
  let req =
    let* threads = frequency [ (1, return 1); (4, int_range 2 1024); (1, int_range 1025 4096) ] in
    let* shared_words = frequency [ (1, return 0); (4, int_range 1 30_000) ] in
    let* regs_per_thread = frequency [ (1, return 0); (4, int_range 1 320) ] in
    return { Occ.threads; shared_words; regs_per_thread }
  in
  (* each limit either the preset's or another value, max_int included *)
  let perturbed (a : Arch.t) =
    let field v lo hi = frequency [ (2, return v); (3, int_range lo hi); (1, return max_int) ] in
    let* max_threads_per_sm = field a.Arch.max_threads_per_sm 0 4096 in
    let* max_threads_per_block = field a.Arch.max_threads_per_block 1 2048 in
    let* max_blocks_per_sm = field a.Arch.max_blocks_per_sm 0 64 in
    let* shared_mem_per_sm = field a.Arch.shared_mem_per_sm 0 60_000 in
    let* shared_mem_per_block = field a.Arch.shared_mem_per_block 0 30_000 in
    let* registers_per_sm = field a.Arch.registers_per_sm 0 131_072 in
    let* max_regs_per_thread = field a.Arch.max_regs_per_thread 0 320 in
    return
      { a with
        Arch.max_threads_per_sm; max_threads_per_block; max_blocks_per_sm;
        shared_mem_per_sm; shared_mem_per_block; registers_per_sm;
        max_regs_per_thread }
  in
  (* some of the four limits set to allow exactly [k] blocks, so they tie *)
  let tied (a : Arch.t) (r : Occ.request) =
    let* k = int_range 1 16 in
    let* t = bool and* b = bool and* s = bool and* g = bool in
    let regs = min r.Occ.regs_per_thread a.Arch.max_regs_per_thread in
    return
      { a with
        Arch.max_threads_per_sm = (if t then k * r.Occ.threads else a.Arch.max_threads_per_sm);
        max_threads_per_block = max a.Arch.max_threads_per_block r.Occ.threads;
        max_blocks_per_sm = (if b then k else a.Arch.max_blocks_per_sm);
        shared_mem_per_sm = (if s then k * r.Occ.shared_words else a.Arch.shared_mem_per_sm);
        shared_mem_per_block = max a.Arch.shared_mem_per_block r.Occ.shared_words;
        registers_per_sm =
          (if g then k * regs * r.Occ.threads else a.Arch.registers_per_sm) }
  in
  let gen =
    let* r = req in
    let* preset = oneofl Arch.presets in
    let* a = frequency [ (1, return preset); (2, perturbed preset); (2, tied preset r) ] in
    return (a, r)
  in
  let print ((a : Arch.t), (r : Occ.request)) =
    Printf.sprintf
      "threads=%d shared=%d regs=%d | thr/sm=%d thr/block=%d blocks/sm=%d \
       smem/sm=%d smem/block=%d regs/sm=%d regs/thread=%d"
      r.Occ.threads r.Occ.shared_words r.Occ.regs_per_thread
      a.Arch.max_threads_per_sm a.Arch.max_threads_per_block a.Arch.max_blocks_per_sm
      a.Arch.shared_mem_per_sm a.Arch.shared_mem_per_block a.Arch.registers_per_sm
      a.Arch.max_regs_per_thread
  in
  QCheck.Test.make ~name:"occupancy equals the limit fold" ~count:200_000
    (QCheck.make ~print gen)
    (fun (a, r) ->
      let got = Occ.calculate a r and want = reference_occupancy a r in
      got.Occ.blocks_per_sm = want.Occ.blocks_per_sm
      && got.Occ.limiting = want.Occ.limiting
      && got.Occ.regs_spilled_per_thread = want.Occ.regs_spilled_per_thread)

(* compute.ml's claim: the hoisted chunk fold is the row fold, bit for bit *)
let prop_chunk_is_row_fold =
  let open QCheck.Gen in
  let gen =
    let* a = oneofl Arch.presets in
    let* threads = frequency [ (2, int_range 1 255); (2, int_range 256 1024); (1, map (( * ) 32) (int_range 1 32)) ] in
    let* spilled = frequency [ (1, return 0); (1, int_range 1 64) ] in
    let* resident = int_range 1 32 in
    let* row_stride = int_range 1 130 in
    let* rank = int_range 1 3 and* double = bool in
    let* n_rows = int_range 1 8 in
    let* rows =
      list_repeat n_rows
        (let* points = oneof [ int_range 1 160; int_range 161 40_000 ] in
         let* repeats = int_range 1 12 in
         return { W.points; repeats })
    in
    return (a, threads, spilled, resident, row_stride, rank, double, rows)
  in
  let print (a, threads, spilled, resident, row_stride, rank, double, rows) =
    Printf.sprintf "%s threads=%d spilled=%d resident=%d stride=%d rank=%d double=%b rows=[%s]"
      a.Arch.name threads spilled resident row_stride rank double
      (String.concat "; " (List.map (fun r -> Printf.sprintf "%dx%d" r.W.points r.W.repeats) rows))
  in
  QCheck.Test.make ~name:"chunk_seconds is the fold of row_seconds" ~count:20_000
    (QCheck.make ~print gen)
    (fun (a, threads, spilled_regs, resident, row_stride, rank, double, rows) ->
      let body = { body with Gpu.Pointcost.rank; double } in
      let w =
        W.v ~label:"fold" ~threads ~shared_words:0 ~regs_per_thread:0 ~body ~rows
          ~input:{ Mem.words = 1; run_length = 1 }
          ~output:{ Mem.words = 1; run_length = 1 }
          ~row_stride ~chunks:1
      in
      let folded =
        List.fold_left
          (fun acc (r : W.row) ->
            acc
            +. float_of_int r.W.repeats
               *. Cmp.row_seconds a w ~spilled_regs ~resident ~points:r.W.points)
          0.0 rows
      in
      Int64.equal
        (Int64.bits_of_float (Cmp.chunk_seconds a w ~spilled_regs ~resident))
        (Int64.bits_of_float folded))

let domain_suite =
  [
    Alcotest.test_case "occupancy memo per domain" `Quick
      test_occupancy_memo_domains;
  ]

let suite =
  [
    Alcotest.test_case "presets (Table 2)" `Quick test_presets;
    Alcotest.test_case "derived arch" `Quick test_arch_derived;
    Alcotest.test_case "pointcost" `Quick test_pointcost;
    Alcotest.test_case "occupancy limits" `Quick test_occupancy_limits;
    Alcotest.test_case "occupancy infeasible/spill" `Quick test_occupancy_infeasible_and_spill;
    Alcotest.test_case "occupancy memo by numbers" `Quick test_occupancy_memo_by_numbers;
    Alcotest.test_case "occupancy memo counts" `Quick test_occupancy_memo_counts;
    Alcotest.test_case "coalescing" `Quick test_memory_coalescing;
    Alcotest.test_case "transfer timing" `Quick test_memory_transfer;
    Alcotest.test_case "smem conflicts" `Quick test_smem_conflicts;
    Alcotest.test_case "workload accessors" `Quick test_workload_accessors;
    Alcotest.test_case "workload validation" `Quick test_workload_validation;
    Alcotest.test_case "lane iterations" `Quick test_compute_lane_iterations;
    Alcotest.test_case "compute penalties" `Quick test_compute_penalties;
    Alcotest.test_case "compute guards name their function" `Quick
      test_compute_guards_name_their_function;
    Alcotest.test_case "kernel accessors" `Quick test_kernel_accessors;
    Alcotest.test_case "simulator basics" `Quick test_simulator_basics;
    Alcotest.test_case "simulator infeasible" `Quick test_simulator_infeasible;
    Alcotest.test_case "simulator determinism" `Quick test_simulator_determinism;
    Alcotest.test_case "exact vs fast" `Quick test_exact_matches_fast;
    Alcotest.test_case "run sequence" `Quick test_run_sequence;
    Alcotest.test_case "measure protocol" `Quick test_measure_min_of_runs;
    Alcotest.test_case "hyperthreading overlap" `Quick test_hyperthreading_overlap;
    Alcotest.test_case "eventsim agreement" `Quick test_eventsim_agreement;
    Alcotest.test_case "eventsim latency" `Quick test_eventsim_latency_emerges;
    Alcotest.test_case "eventsim conservation" `Quick test_eventsim_work_conservation;
    Alcotest.test_case "priced replay identity" `Quick test_priced_replay_identity;
    Alcotest.test_case "priced counts once" `Quick test_priced_counts_once;
    Alcotest.test_case "eventsim fast/slow corners" `Quick
      test_eventsim_fast_slow_degenerate;
    QCheck_alcotest.to_alcotest prop_eventsim_fast_eq_slow;
    QCheck_alcotest.to_alcotest prop_simulator_monotone_in_io;
    QCheck_alcotest.to_alcotest prop_occupancy_matches_fold;
    QCheck_alcotest.to_alcotest prop_chunk_is_row_fold;
  ]
