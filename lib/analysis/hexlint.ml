module Ir = Hextime_ir.Ir
module Arch = Hextime_gpu.Arch
module Smem = Hextime_gpu.Smem
module Occupancy = Hextime_gpu.Occupancy
module Model = Hextime_core.Model
module Params = Hextime_core.Params
module Problem = Hextime_stencil.Problem
module Config = Hextime_tiling.Config
module Lower = Hextime_tiling.Lower
module Hexgeom = Hextime_tiling.Hexgeom

type severity = Error | Warning

type finding = {
  pass : string;
  severity : severity;
  kernel : string;
  message : string;
}

let severity_name = function Error -> "error" | Warning -> "warning"

let finding ~pass ~severity ~kernel fmt =
  Printf.ksprintf (fun message -> { pass; severity; kernel; message }) fmt

let dedup findings =
  List.fold_left
    (fun (seen, acc) f ->
      if List.mem f seen then (seen, acc) else (f :: seen, f :: acc))
    ([], []) findings
  |> snd |> List.rev

(* ------------------------------------------------------------------ *)
(* Pass 1: shared-memory races across the double buffer.              *)
(* ------------------------------------------------------------------ *)

type access = { desc : string; half : Ir.half; write : bool }

let accesses_of = function
  | Ir.Load_tile { dst; _ } ->
      [ { desc = "tile load"; half = dst; write = true } ]
  | Ir.Store_tile { src; _ } ->
      [ { desc = "tile store"; half = src; write = false } ]
  | Ir.Compute_row c ->
      let d = Printf.sprintf "row %d compute" c.Ir.row.Ir.r in
      [
        { desc = d; half = c.Ir.reads; write = false };
        { desc = d; half = c.Ir.writes; write = true };
      ]
  | Ir.Sync | Ir.Chunk_loop _ -> []

let check_races (k : Ir.kernel) =
  let out = ref [] in
  let emit f = out := f :: !out in
  let name = k.Ir.name in
  let pending = ref [] in
  let step stmt =
    (match stmt with
    | Ir.Compute_row c when c.Ir.reads = c.Ir.writes ->
        emit
          (finding ~pass:"races" ~severity:Error ~kernel:name
             "row %d reads and writes the same buffer half (%s): threads of \
              one row race with each other"
             c.Ir.row.Ir.r (Ir.half_name c.Ir.reads))
    | _ -> ());
    match stmt with
    | Ir.Sync ->
        if !pending = [] then
          emit
            (finding ~pass:"races" ~severity:Warning ~kernel:name
               "redundant barrier: no shared-memory access since the \
                previous __syncthreads()");
        pending := []
    | _ ->
        let accs = accesses_of stmt in
        List.iter
          (fun a ->
            List.iter
              (fun p ->
                if p.half = a.half && (p.write || a.write) && p.desc <> a.desc
                then
                  let kind =
                    match (p.write, a.write) with
                    | true, true -> "write/write"
                    | true, false -> "read-after-write"
                    | false, true -> "write-after-read"
                    | false, false -> assert false
                  in
                  emit
                    (finding ~pass:"races" ~severity:Error ~kernel:name
                       "%s race on buffer half %s: %s then %s with no \
                        barrier between them"
                       kind (Ir.half_name a.half) p.desc a.desc)
              )
              !pending)
          accs;
        pending := !pending @ accs
  in
  List.iter step (Ir.unrolled ~iterations:2 k);
  dedup (List.rev !out)

(* ------------------------------------------------------------------ *)
(* Pass 2: shared-memory bounds.                                      *)
(* ------------------------------------------------------------------ *)

let hex_family = function Ir.Green -> Hexgeom.Green | Ir.Yellow -> Hexgeom.Yellow

let check_bounds (k : Ir.kernel) =
  let out = ref [] in
  let emit f = out := f :: !out in
  let name = k.Ir.name in
  let order = k.Ir.order in
  (* B1: tap offsets within the halo radius *)
  List.iter
    (fun off ->
      if Array.length off <> k.Ir.rank then
        emit
          (finding ~pass:"bounds" ~severity:Error ~kernel:name
             "stencil offset has %d components for a rank-%d kernel"
             (Array.length off) k.Ir.rank)
      else
        Array.iteri
          (fun d o ->
            if abs o > order then
              emit
                (finding ~pass:"bounds" ~severity:Error ~kernel:name
                   "tap offset %d in dimension %d exceeds the order-%d halo \
                    the shared window allocates"
                   o d order))
          off)
    (Ir.rule_offsets k.Ir.rule);
  (* B2: declared allocation consistent with declared extents *)
  let ext_product = Array.fold_left ( * ) 1 k.Ir.smem_ext in
  let expect = 2 * k.Ir.word_factor * ext_product in
  if k.Ir.smem_words <> expect then
    emit
      (finding ~pass:"bounds" ~severity:Error ~kernel:name
         "shared allocation is %d words but the double-buffered extents %s \
          require %d"
         k.Ir.smem_words
         (String.concat "x" (Array.to_list (Array.map string_of_int k.Ir.smem_ext)))
         expect);
  (* B3: every row's window (idealised width + halo) fits the dim-0 extent *)
  let rows = Ir.rows k in
  List.iter
    (fun (r : Ir.row) ->
      if r.Ir.width < 1 then
        emit
          (finding ~pass:"bounds" ~severity:Error ~kernel:name
             "row %d has non-positive width %d" r.Ir.r r.Ir.width)
      else if r.Ir.width + (2 * order) > k.Ir.smem_ext.(0) - 1 then
        emit
          (finding ~pass:"bounds" ~severity:Error ~kernel:name
             "row %d width %d plus its order-%d halo overruns the dim-0 \
              shared extent %d"
             r.Ir.r r.Ir.width order k.Ir.smem_ext.(0)))
    rows;
  (* B5: inner tile extents + halo fit the inner shared extents *)
  for d = 1 to k.Ir.rank - 1 do
    if k.Ir.t_s.(d) + (2 * order) > k.Ir.smem_ext.(d) then
      emit
        (finding ~pass:"bounds" ~severity:Error ~kernel:name
           "inner tile extent %d plus its order-%d halo overruns shared \
            extent %d in dimension %d"
           k.Ir.t_s.(d) order k.Ir.smem_ext.(d) d)
  done;
  (* B4: staged transfers cannot exceed the allocation they stage through *)
  let check_words what words =
    if words > k.Ir.smem_words then
      emit
        (finding ~pass:"bounds" ~severity:Error ~kernel:name
           "%s stages %d words through a %d-word shared allocation" what
           words k.Ir.smem_words)
  in
  check_words "tile load" (Ir.load_words_per_chunk k);
  check_words "tile store" (Ir.store_words_per_chunk k);
  (* B6: boundary tiles of the exact lattice, clipped to the domain, never
     exceed the widest row the buffer is sized for *)
  (if k.Ir.t_t >= 2 && k.Ir.t_t mod 2 = 0 && k.Ir.rank >= 1 then
     let widest =
       List.fold_left (fun acc (r : Ir.row) -> max acc r.Ir.width) 0 rows
     in
     let extra =
       match rows with [] -> 0 | (r : Ir.row) :: _ -> r.Ir.extra
     in
     let fam = hex_family k.Ir.family in
     let t_s0 = k.Ir.t_s.(0) and t_t = k.Ir.t_t in
     let space = k.Ir.space.(0) and time = k.Ir.time in
     let last_index =
       Hexgeom.wavefront_width ~order ~t_s:t_s0 ~t_t ~space - 1
     in
     let last_band = (time + t_t - 1) / t_t in
     List.iter
       (fun (band, index) ->
         let tile = { Hexgeom.family = fam; band; index } in
         List.iter
           (fun (t, lo, hi) ->
             let w = hi - lo + 1 in
             if lo < 0 || hi >= space || t < 1 || t > time then
               emit
                 (finding ~pass:"bounds" ~severity:Error ~kernel:name
                    "boundary tile (band %d, index %d) row at t=%d spans \
                     [%d, %d] outside the iteration domain"
                    band index t lo hi)
             else if w > widest + extra then
               emit
                 (finding ~pass:"bounds" ~severity:Error ~kernel:name
                    "boundary tile (band %d, index %d) row at t=%d is %d \
                     points wide; the buffer is sized for at most %d"
                    band index t w (widest + extra)))
           (Hexgeom.rows_clipped ~order ~t_s:t_s0 ~t_t ~space ~time tile))
       [ (0, 0); (0, last_index); (last_band, 0); (last_band, last_index) ]);
  dedup (List.rev !out)

(* ------------------------------------------------------------------ *)
(* Pass 3: static bank conflicts, cross-checked against Smem pricing. *)
(* ------------------------------------------------------------------ *)

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

let check_banks (arch : Arch.t) ~priced_stride (k : Ir.kernel) =
  let out = ref [] in
  let emit f = out := f :: !out in
  let name = k.Ir.name in
  let strides =
    List.filter_map
      (function Ir.Compute_row c -> Some c.Ir.stride | _ -> None)
      (Ir.unrolled ~iterations:1 k)
    |> List.sort_uniq compare
  in
  List.iter
    (fun stride ->
      if stride < 1 then
        emit
          (finding ~pass:"banks" ~severity:Error ~kernel:name
             "non-positive shared-array stride %d" stride)
      else begin
        if stride <> priced_stride then
          emit
            (finding ~pass:"banks" ~severity:Error ~kernel:name
               "IR row stride %d disagrees with the stride %d the simulator \
                priced: lint and pricing are looking at different schedules"
               stride priced_stride);
        if k.Ir.rank >= 2 then begin
          let degree = gcd stride arch.Arch.shared_banks in
          let expected =
            if degree <= 1 then 1.0
            else 1.0 +. (0.25 *. float_of_int (degree - 1))
          in
          let priced = Smem.conflict_factor arch ~row_stride:stride in
          if abs_float (expected -. priced) > 1e-9 then
            emit
              (finding ~pass:"banks" ~severity:Error ~kernel:name
                 "static bank model disagrees with Smem.conflict_factor for \
                  stride %d: %.4f vs %.4f (cost-model drift)"
                 stride expected priced)
          else if degree > 1 then
            emit
              (finding ~pass:"banks" ~severity:Warning ~kernel:name
                 "row stride %d shares a factor %d with the %d banks: \
                  %d-way serialisation (factor %.2f) the model does not \
                  price"
                 stride degree arch.Arch.shared_banks degree priced)
        end
      end)
    strides;
  dedup (List.rev !out)

(* ------------------------------------------------------------------ *)
(* Pass 4: resource limits and occupancy.                             *)
(* ------------------------------------------------------------------ *)

let limit_name = function
  | Occupancy.Threads -> "thread slots"
  | Occupancy.Blocks -> "block slots"
  | Occupancy.Shared_memory -> "shared memory"
  | Occupancy.Registers -> "registers"

let check_resources (arch : Arch.t) (k : Ir.kernel) =
  let out = ref [] in
  let emit f = out := f :: !out in
  let name = k.Ir.name in
  if k.Ir.threads > arch.Arch.max_threads_per_block then
    emit
      (finding ~pass:"resources" ~severity:Error ~kernel:name
         "%d threads per block exceeds the device cap of %d" k.Ir.threads
         arch.Arch.max_threads_per_block);
  if k.Ir.threads mod arch.Arch.warp_size <> 0 then
    emit
      (finding ~pass:"resources" ~severity:Warning ~kernel:name
         "%d threads is not a multiple of the warp size %d: the trailing \
          partial warp wastes lanes"
         k.Ir.threads arch.Arch.warp_size);
  if k.Ir.smem_words > arch.Arch.shared_mem_per_block then
    emit
      (finding ~pass:"resources" ~severity:Error ~kernel:name
         "shared allocation of %d words exceeds the per-block cap of %d"
         k.Ir.smem_words arch.Arch.shared_mem_per_block);
  (* moderate spilling is priced by the simulator and normal in the
     baseline sweep; demand beyond twice the architectural cap means the
     lowering (or its register estimate) is broken, not merely spilling *)
  if k.Ir.regs_per_thread > 2 * arch.Arch.max_regs_per_thread then
    emit
      (finding ~pass:"resources" ~severity:Error ~kernel:name
         "register demand of %d per thread is beyond twice the \
          architectural cap of %d: the lowering estimate is implausible"
         k.Ir.regs_per_thread arch.Arch.max_regs_per_thread);
  (if k.Ir.threads > 0 && k.Ir.threads <= arch.Arch.max_threads_per_sm then begin
     let occ =
       Occupancy.calculate arch
         {
           Occupancy.threads = k.Ir.threads;
           shared_words = max 0 k.Ir.smem_words;
           regs_per_thread = max 0 k.Ir.regs_per_thread;
         }
     in
     (* register spills (occ.regs_spilled_per_thread) are deliberately not
        a finding: the simulator prices them, and many legitimate baseline
        configurations spill a little.  The lint's job is schedule defects
        and hard limits. *)
     if occ.Occupancy.blocks_per_sm = 0 then
       emit
         (finding ~pass:"resources" ~severity:Error ~kernel:name
            "zero occupancy: no block fits on an SM (limited by %s)"
            (limit_name occ.Occupancy.limiting))
   end);
  dedup (List.rev !out)

(* ------------------------------------------------------------------ *)
(* Pass 5: conformance with the analytical model's charged counts.    *)
(* ------------------------------------------------------------------ *)

let check_conformance (pr : Model.prediction) (prog : Ir.program) =
  let out = ref [] in
  let emit f = out := f :: !out in
  (match prog.Ir.kernels with
  | [] ->
      emit
        (finding ~pass:"conformance" ~severity:Error ~kernel:"host"
           "program has no kernels to check against the model")
  | k0 :: _ ->
      let sc = Model.scheduled_counts pr ~t_t:k0.Ir.t_t in
      let check name what got want =
        if got <> want then
          emit
            (finding ~pass:"conformance" ~severity:Error ~kernel:name
               "%s: IR realises %d, the model charged for %d" what got want)
      in
      List.iter
        (fun (k : Ir.kernel) ->
          let name = k.Ir.name in
          check name "per-chunk global traffic (m_io words)"
            (Ir.io_words_per_chunk k) sc.Model.sched_io_words;
          check name "shared allocation (M_tile words)" k.Ir.smem_words
            sc.Model.sched_shared_words;
          check name "chunk-loop trip count" (Ir.chunk_trips k)
            sc.Model.sched_chunks;
          check name "barriers per chunk (t_T rows + 2 staging)"
            (Ir.syncs_per_chunk k) sc.Model.sched_syncs_per_chunk)
        prog.Ir.kernels;
      (* host loop: every launch round and its width must be what
         Equations 2/3/5 charged *)
      let host = prog.Ir.host in
      let launches = host.Ir.bands * List.length host.Ir.per_band in
      check "host" "kernel launches (N_w wavefronts)" launches
        sc.Model.sched_wavefronts;
      List.iter
        (fun (l : Ir.launch) ->
          check "host"
            (Printf.sprintf "blocks launched for %s (w per wavefront)"
               l.Ir.kernel_name)
            l.Ir.blocks sc.Model.sched_wavefront_blocks;
          match
            List.find_opt
              (fun (k : Ir.kernel) -> k.Ir.name = l.Ir.kernel_name)
              prog.Ir.kernels
          with
          | None ->
              emit
                (finding ~pass:"conformance" ~severity:Error ~kernel:"host"
                   "launch names kernel %s which the program does not define"
                   l.Ir.kernel_name)
          | Some k ->
              check "host"
                (Printf.sprintf "threads launched for %s" l.Ir.kernel_name)
                l.Ir.threads k.Ir.threads)
        host.Ir.per_band;
      if not host.Ir.device_sync then
        emit
          (finding ~pass:"conformance" ~severity:Warning ~kernel:"host"
             "host loop never synchronises with the device; the model \
              charges T_sync per wavefront");
      (* family-averaged width convention: per row, green + yellow points
         must sum to twice the Refined width (t_S1 + order + 2 depth(r)) *)
      (match prog.Ir.kernels with
      | [ a; b ]
        when a.Ir.family <> b.Ir.family
             && a.Ir.t_t = b.Ir.t_t && a.Ir.t_s = b.Ir.t_s
             && a.Ir.order = b.Ir.order && a.Ir.rank = b.Ir.rank ->
          let order = a.Ir.order and t_t = a.Ir.t_t in
          let inner =
            Array.fold_left ( * ) 1 (Array.sub a.Ir.t_s 1 (a.Ir.rank - 1))
          in
          let ra = Ir.rows a and rb = Ir.rows b in
          if List.length ra = t_t && List.length rb = t_t then
            List.iteri
              (fun i ((x : Ir.row), (y : Ir.row)) ->
                let depth = order * min i (t_t - 1 - i) in
                let want =
                  2 * (a.Ir.t_s.(0) + order + (2 * depth)) * inner
                in
                if x.Ir.points + y.Ir.points <> want then
                  emit
                    (finding ~pass:"conformance" ~severity:Error
                       ~kernel:"host"
                       "row %d: green + yellow point counts %d + %d differ \
                        from the family-averaged 2*(t_S1 + order + \
                        2*depth)*inner = %d the model's c sums"
                       i x.Ir.points y.Ir.points want))
              (List.combine ra rb)
      | _ -> ()));
  dedup (List.rev !out)

(* ------------------------------------------------------------------ *)
(* Driver.                                                            *)
(* ------------------------------------------------------------------ *)

type report = {
  problem_id : string;
  config_id : string;
  arch_name : string;
  findings : finding list;
}

let lint_config (params : Params.t) ~(arch : Arch.t) ~citer problem cfg =
  match Lower.ir_program problem cfg with
  | Error e -> Result.Error e
  | Ok prog -> (
      match Model.predict params ~citer problem cfg with
      | Error e -> Result.Error e
      | Ok pr ->
          let per_kernel (k : Ir.kernel) =
            let wf =
              match Ir.validate k with
              | Ok () -> []
              | Error msg ->
                  [
                    finding ~pass:"well-formed" ~severity:Error
                      ~kernel:k.Ir.name "%s" msg;
                  ]
            in
            let banks =
              match
                Lower.workload problem cfg ~family:(hex_family k.Ir.family)
              with
              | Error msg ->
                  [
                    finding ~pass:"banks" ~severity:Error ~kernel:k.Ir.name
                      "no priced workload for this family: %s" msg;
                  ]
              | Ok wl ->
                  check_banks arch
                    ~priced_stride:wl.Hextime_gpu.Workload.row_stride k
            in
            wf @ check_races k @ check_bounds k @ banks
            @ check_resources arch k
          in
          let findings =
            List.concat_map per_kernel prog.Ir.kernels
            @ check_conformance pr prog
          in
          Ok
            {
              problem_id = Problem.id problem;
              config_id = Config.id cfg;
              arch_name = arch.Arch.name;
              findings;
            })

let error_count r =
  List.length (List.filter (fun f -> f.severity = Error) r.findings)

let warning_count r =
  List.length (List.filter (fun f -> f.severity = Warning) r.findings)

let render_text r =
  let b = Buffer.create 256 in
  let head =
    Printf.sprintf "%s %s on %s" r.problem_id r.config_id r.arch_name
  in
  if r.findings = [] then Buffer.add_string b (head ^ ": clean\n")
  else begin
    Buffer.add_string b
      (Printf.sprintf "%s: %d error(s), %d warning(s)\n" head (error_count r)
         (warning_count r));
    List.iter
      (fun f ->
        Buffer.add_string b
          (Printf.sprintf "  [%s] %s: %s: %s\n" (severity_name f.severity)
             f.pass f.kernel f.message))
      r.findings
  end;
  Buffer.contents b

let render_sweep_text reports =
  (* identical findings repeat across hundreds of sweep configurations;
     aggregate on (pass, severity, kernel, message) and report each once
     with the number of configurations it occurred in *)
  let tbl : (finding, int * string) Hashtbl.t = Hashtbl.create 64 in
  let order = ref [] in
  List.iter
    (fun r ->
      let where =
        Printf.sprintf "%s %s on %s" r.problem_id r.config_id r.arch_name
      in
      List.iter
        (fun f ->
          match Hashtbl.find_opt tbl f with
          | Some (n, first) -> Hashtbl.replace tbl f (n + 1, first)
          | None ->
              Hashtbl.add tbl f (1, where);
              order := f :: !order)
        r.findings)
    reports;
  let b = Buffer.create 256 in
  let dirty = List.length (List.filter (fun r -> r.findings <> []) reports) in
  if dirty > 0 then
    Buffer.add_string b
      (Printf.sprintf "%d distinct finding(s) across %d configuration(s):\n"
         (List.length !order) dirty);
  List.iter
    (fun f ->
      let n, first = Hashtbl.find tbl f in
      Buffer.add_string b
        (Printf.sprintf "  [%s] %s: %s: %s — %d configuration(s), e.g. %s\n"
           (severity_name f.severity) f.pass f.kernel f.message n first))
    (List.rev !order);
  Buffer.contents b

let render_json reports =
  let module J = Hextime_prelude.Minijson in
  let finding f =
    J.Obj
      [
        ("pass", J.Str f.pass);
        ("severity", J.Str (severity_name f.severity));
        ("kernel", J.Str f.kernel);
        ("message", J.Str f.message);
      ]
  in
  let report r =
    J.Obj
      [
        ("problem", J.Str r.problem_id);
        ("config", J.Str r.config_id);
        ("arch", J.Str r.arch_name);
        ("errors", J.Num (float_of_int (error_count r)));
        ("warnings", J.Num (float_of_int (warning_count r)));
        ("findings", J.List (List.map finding r.findings));
      ]
  in
  J.render (J.List (List.map report reports))
