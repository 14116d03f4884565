module Gpu = Hextime_gpu
module Ints = Hextime_prelude.Ints
module Det_hash = Hextime_prelude.Det_hash
module Stencil = Hextime_stencil.Stencil
module Problem = Hextime_stencil.Problem
module Config = Hextime_tiling.Config
module Params = Hextime_core.Params

let empty_body =
  { Gpu.Pointcost.flops = 0; loads = 0; transcendentals = 0; rank = 1;
    double = false }

let kernel_time arch kernel =
  match Gpu.Simulator.run_kernel ~jitter:false arch kernel with
  | Ok st -> st.Gpu.Simulator.time_s
  | Error msg -> invalid_arg ("Microbench: infeasible micro-kernel: " ^ msg)

(* one block per SM, no hyper-threading: reserve the whole per-block cap *)
let micro_workload (arch : Gpu.Arch.t) ~label ~threads ~rows ~in_words ~run_length =
  Gpu.Workload.v ~label ~threads ~shared_words:arch.shared_mem_per_block
    ~regs_per_thread:24 ~body:empty_body ~rows
    ~input:{ Gpu.Memory.words = in_words; run_length }
    ~output:{ Gpu.Memory.words = 0; run_length }
    ~row_stride:1 ~chunks:1

let micro_kernel arch ~label ~threads ~rows ~in_words ~run_length =
  let w = micro_workload arch ~label ~threads ~rows ~in_words ~run_length in
  Gpu.Kernel.v ~label ~blocks:[ (w, arch.Gpu.Arch.n_sm) ]

let one_row = [ { Gpu.Workload.points = 1; repeats = 1 } ]

let measure_l (arch : Gpu.Arch.t) =
  let time w =
    kernel_time arch
      (micro_kernel arch
         ~label:(Printf.sprintf "ubench-L-%d" w)
         ~threads:256 ~rows:one_row ~in_words:w ~run_length:256)
  in
  let w1 = 1 lsl 20 and w2 = 1 lsl 22 in
  (* slope over transfer size cancels launch overhead and DRAM latency;
     every SM streams concurrently, so the slope is the device-level cost
     per word — the quantity the paper's Table 3 reports *)
  (time w2 -. time w1) /. float_of_int ((w2 - w1) * arch.n_sm)

let measure_t_sync (arch : Gpu.Arch.t) =
  let nearly_empty =
    micro_kernel arch ~label:"ubench-Tsync" ~threads:256 ~rows:one_row
      ~in_words:0 ~run_length:32
  in
  let time n =
    match Gpu.Simulator.run_sequence ~jitter:false arch [ (nearly_empty, n) ] with
    | Ok st -> st.Gpu.Simulator.total_s
    | Error msg -> invalid_arg ("Microbench: " ^ msg)
  in
  (time 101 -. time 1) /. 100.0

let measure_tau_sync (arch : Gpu.Arch.t) =
  let repeats = 1_000_000 in
  (* saturate the SMs with resident blocks so the barrier's pipeline bubble
     is overlap-filled and the timing isolates the issue cost itself *)
  let resident = 8 in
  let time points =
    let w =
      Gpu.Workload.v
        ~label:(Printf.sprintf "ubench-tau-%d" points)
        ~threads:256
        ~shared_words:(arch.shared_mem_per_sm / resident)
        ~regs_per_thread:24 ~body:empty_body
        ~rows:[ { Gpu.Workload.points; repeats } ]
        ~input:{ Gpu.Memory.words = 0; run_length = 32 }
        ~output:{ Gpu.Memory.words = 0; run_length = 32 }
        ~row_stride:1 ~chunks:1
    in
    kernel_time arch
      (Gpu.Kernel.v
         ~label:(Printf.sprintf "ubench-tau-%d" points)
         ~blocks:[ (w, resident * arch.Gpu.Arch.n_sm) ])
    /. float_of_int resident
  in
  (* rows of nV points need one issue round; rows of 2*nV need two; the
     difference isolates the per-round cost, and subtracting it from the
     one-round row leaves the synchronisation *)
  let t1 = time arch.n_vector and t2 = time (2 * arch.n_vector) in
  ((2.0 *. t1) -. t2) /. float_of_int repeats

(* Calibration reads an architecture's pricing fields and a stencil's
   pricing structure, never a name (every micro-kernel runs unjittered), so
   both memos are keyed by the pricing digests: a modified copy of a preset
   keeps the preset's name but gets its own constants.  Every warm advisor
   request looks its calibration up, so the presets' digests are taken
   once. *)
let digest_with mix presets =
  let digest x = Det_hash.to_int64 (mix (Det_hash.create "microbench") x) in
  let known = List.map (fun x -> (x, digest x)) presets in
  fun x -> match List.assq_opt x known with Some d -> d | None -> digest x

let arch_digest = digest_with Gpu.Arch.mix_pricing Gpu.Arch.presets
let stencil_digest = digest_with Stencil.mix_pricing Stencil.all_benchmarks

(* Both memos are read on every warm advisor request and written by
   whichever domain first calibrates a new context (a parallel sweep or
   index build, a cold solve), so each is published through an [Atomic]
   holding an immutable map: a lookup is one [Atomic.get] and a map search,
   no lock; an insert swaps in an extended map by compare-and-set, retrying
   when another domain published in between.  Calibration is deterministic,
   so two domains racing on one key compute the same value and the first
   to publish wins. *)
module Memo (K : Map.OrderedType) = struct
  module M = Map.Make (K)

  let create () = Atomic.make M.empty
  let mem t k = M.mem k (Atomic.get t)

  let find_or_add t k compute =
    match M.find_opt k (Atomic.get t) with
    | Some v -> v
    | None ->
        let v = compute () in
        let rec publish () =
          let m = Atomic.get t in
          match M.find_opt k m with
          | Some v -> v
          | None ->
              if Atomic.compare_and_set t m (M.add k v m) then v
              else publish ()
        in
        publish ()
end

module Constants_memo = Memo (Int64)

module Citer_memo = Memo (struct
  type t = int64 * int64 * Problem.precision

  let compare (a, s, p) (a', s', p') =
    match Int64.compare a a' with
    | 0 -> (
        match Int64.compare s s' with
        | 0 -> (
            match (p, p') with
            | Problem.F32, Problem.F64 -> -1
            | F64, F32 -> 1
            | F32, F32 | F64, F64 -> 0)
        | c -> c)
    | c -> c
end)

(* the measured constants; the record around them carries the caller's
   architecture name *)
let constants_memo = Constants_memo.create ()

let params arch =
  let l_word, tau_sync, t_sync =
    Constants_memo.find_or_add constants_memo (arch_digest arch) (fun () ->
        (measure_l arch, measure_tau_sync arch, measure_t_sync arch))
  in
  Params.of_microbenchmarks arch ~l_word ~tau_sync ~t_sync

let citer_samples = 70

(* a deterministic pseudo-random pick from a list *)
let pick h xs =
  let n = List.length xs in
  List.nth xs (Int64.to_int (Int64.rem (Det_hash.to_int64 h) (Int64.of_int n)) |> abs)

let citer_problem ~precision (stencil : Stencil.t) =
  let space =
    match stencil.Stencil.rank with
    | 1 -> [| 65536 |]
    | 2 -> [| 2048; 2048 |]
    | _ -> [| 256; 256; 256 |]
  in
  Problem.make ~precision stencil ~space ~time:64

let random_shape h (stencil : Stencil.t) =
  let t_t = pick (Det_hash.mix_int h 1) [ 4; 8; 12; 16; 20 ] in
  let t_s =
    match stencil.Stencil.rank with
    | 1 -> [| pick (Det_hash.mix_int h 2) [ 16; 32; 64; 128 ] |]
    | 2 ->
        [|
          pick (Det_hash.mix_int h 2) [ 8; 12; 16; 24 ];
          pick (Det_hash.mix_int h 3) [ 64; 96; 128 ];
        |]
    | _ ->
        [|
          pick (Det_hash.mix_int h 2) [ 2; 4; 8 ];
          pick (Det_hash.mix_int h 3) [ 4; 8; 16 ];
          pick (Det_hash.mix_int h 4) [ 32; 64 ];
        |]
  in
  let threads = pick (Det_hash.mix_int h 5) [ 256; 384; 512 ] in
  Config.make ~t_t ~t_s ~threads:[| threads |]

(* iterations in the Section 5.2 sense: issue rounds per vector unit *)
let iterations (arch : Gpu.Arch.t) (w : Gpu.Workload.t) =
  w.Gpu.Workload.chunks
  * List.fold_left
      (fun acc (r : Gpu.Workload.row) ->
        acc + (r.repeats * Ints.ceil_div r.points arch.n_vector))
      0 w.Gpu.Workload.rows

let citer_once ~precision arch stencil ~sample =
  (* seed from the pricing digests, not the names: renaming an architecture
     or a linear stencil must not reshuffle the sampled shapes, or the mean
     shifts and a pricing-neutral rename would change every answer *)
  let h =
    Det_hash.create "citer"
    |> fun h ->
    Gpu.Arch.mix_pricing h arch
    |> fun h ->
    Stencil.mix_pricing h stencil
    |> fun h -> Det_hash.mix_int h sample
  in
  match random_shape h stencil with
  | Error _ -> None
  | Ok cfg -> (
      let problem = citer_problem ~precision stencil in
      match Hextime_tiling.Lower.workload problem cfg ~family:Hextime_tiling.Hexgeom.Green with
      | Error _ -> None
      | Ok w ->
          (* strip the global traffic and pin one block per SM, as the paper
             does when timing the loop body *)
          (* run at a representative residency (4 blocks/SM): generated
             codes execute hyper-threaded, so the timing should amortise the
             barrier bubbles the same way *)
          let resident = 4 in
          let stripped =
            Gpu.Workload.v
              ~label:(Printf.sprintf "ubench-citer-%d" sample)
              ~threads:w.Gpu.Workload.threads
              ~shared_words:(arch.shared_mem_per_sm / resident)
              ~regs_per_thread:24 ~body:w.Gpu.Workload.body
              ~rows:w.Gpu.Workload.rows
              ~input:{ Gpu.Memory.words = 0; run_length = 32 }
              ~output:{ Gpu.Memory.words = 0; run_length = 32 }
              ~row_stride:w.Gpu.Workload.row_stride
              ~chunks:w.Gpu.Workload.chunks
          in
          let kernel =
            Gpu.Kernel.v
              ~label:stripped.Gpu.Workload.label
              ~blocks:[ (stripped, resident * arch.n_sm) ]
          in
          let total = kernel_time arch kernel in
          let body_time =
            (total -. arch.launch_overhead_s) /. float_of_int resident
          in
          Some (body_time /. float_of_int (iterations arch stripped)))

let measure_citer ?(precision = Problem.F32) arch stencil =
  let samples =
    List.filter_map
      (fun i -> citer_once ~precision arch stencil ~sample:i)
      (Ints.range 0 (citer_samples - 1))
  in
  if samples = [] then
    invalid_arg "Microbench.citer: no feasible random instance";
  Hextime_prelude.Stats.mean samples

let citer_memo = Citer_memo.create ()

let citer_key precision arch stencil =
  (arch_digest arch, stencil_digest stencil, precision)

let citer ?(precision = Problem.F32) arch stencil =
  Citer_memo.find_or_add citer_memo (citer_key precision arch stencil)
    (fun () -> measure_citer ~precision arch stencil)

let memoized ?(precision = Problem.F32) arch stencil =
  Constants_memo.mem constants_memo (arch_digest arch)
  && Citer_memo.mem citer_memo (citer_key precision arch stencil)
