type request = { threads : int; shared_words : int; regs_per_thread : int }
type limit = Threads | Blocks | Shared_memory | Registers

type result = {
  blocks_per_sm : int;
  limiting : limit;
  regs_spilled_per_thread : int;
}

(* Kept while hexbench's traced sweep reads
   [gpu.occupancy.memo_hit_ratio] as hits / (hits + misses): with no memo
   every calculation is a miss, and the ratio reads 0, not 0/0. *)
let calculations = Hextime_obs.Metrics.counter "occupancy.memo_miss"

(* Integer arithmetic only, so a call costs less than a table lookup
   would: no memo, no allocation but the result. *)
let calculate (arch : Arch.t) req =
  if req.threads <= 0 then invalid_arg "Occupancy: threads must be positive";
  if req.shared_words < 0 || req.regs_per_thread < 0 then
    invalid_arg "Occupancy: negative resource request";
  Hextime_obs.Metrics.incr calculations;
  (* nvcc caps the registers a thread may keep; the excess is spilled and the
     capped value is what occupancy is computed from. *)
  let regs_held, spilled =
    if req.regs_per_thread > arch.max_regs_per_thread then
      (arch.max_regs_per_thread, req.regs_per_thread - arch.max_regs_per_thread)
    else (req.regs_per_thread, 0)
  in
  if req.threads > arch.max_threads_per_block then
    { blocks_per_sm = 0; limiting = Threads; regs_spilled_per_thread = spilled }
  else
    let threads = arch.max_threads_per_sm / req.threads in
    let slots = arch.max_blocks_per_sm in
    let shared =
      if req.shared_words = 0 then slots
      else if req.shared_words > arch.shared_mem_per_block then 0
      else arch.shared_mem_per_sm / req.shared_words
    in
    let registers =
      if regs_held = 0 then slots
      else arch.registers_per_sm / (regs_held * req.threads)
    in
    (* the first limit, in this order, to go strictly below the least
       count so far binds *)
    let limiting, least = (Blocks, max_int) in
    let limiting, least =
      if threads < least then (Threads, threads) else (limiting, least)
    in
    let limiting, least =
      if slots < least then (Blocks, slots) else (limiting, least)
    in
    let limiting, least =
      if shared < least then (Shared_memory, shared) else (limiting, least)
    in
    let limiting, least =
      if registers < least then (Registers, registers) else (limiting, least)
    in
    {
      blocks_per_sm = (if least < 0 then 0 else least);
      limiting;
      regs_spilled_per_thread = spilled;
    }

let fits arch req = (calculate arch req).blocks_per_sm >= 1
