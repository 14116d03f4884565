module Problem = Hextime_stencil.Problem
module Lower = Hextime_tiling.Lower
module Gpu = Hextime_gpu

type measurement = {
  time_s : float;
  gflops : float;
  resident_blocks : int;
  spilled_regs : int;
  limiting : Gpu.Occupancy.limit;
}

let gflops_of_time problem time_s =
  if time_s <= 0.0 then invalid_arg "Runner.gflops_of_time";
  Problem.total_flops problem /. time_s /. 1e9

let measure_lowered ?prefix arch problem compiled =
  (* price each kernel once; the min-of-five protocol and the occupancy
     report are both read off the priced representation *)
  match
    Gpu.Simulator.price_sequence ?prefix arch (Lower.kernel_sequence compiled)
  with
  | Error _ as e -> e
  | Ok priced -> (
      match Gpu.Simulator.measure_priced arch priced with
      | Error _ as e -> e
      | Ok time_s ->
          (* one pass: worst spill across kernels, and the binding kernel —
             the one with the fewest resident blocks — whose [limiting] is
             reported so the diagnosis matches the number.  Occupancy is
             jitter-invariant, so this reads the priced kernels directly
             instead of replaying a run. *)
          let worst_spill, binding =
            List.fold_left
              (fun (spill, binding) ((p : Gpu.Simulator.priced), _) ->
                let occ = p.Gpu.Simulator.occ in
                let spill =
                  max spill occ.Gpu.Occupancy.regs_spilled_per_thread
                in
                let binding =
                  match binding with
                  | Some (b : Gpu.Occupancy.result)
                    when b.Gpu.Occupancy.blocks_per_sm
                         <= occ.Gpu.Occupancy.blocks_per_sm ->
                      binding
                  | _ -> Some occ
                in
                (spill, binding))
              (0, None) priced
          in
          let resident_blocks, limiting =
            match binding with
            | Some occ ->
                (occ.Gpu.Occupancy.blocks_per_sm, occ.Gpu.Occupancy.limiting)
            | None -> (0, Gpu.Occupancy.Blocks)
          in
          Ok
            {
              time_s;
              gflops = gflops_of_time problem time_s;
              resident_blocks;
              spilled_regs = worst_spill;
              limiting;
            })

let measure arch problem cfg =
  Result.bind (Lower.compile problem cfg) (measure_lowered arch problem)
