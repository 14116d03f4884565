type request = { threads : int; shared_words : int; regs_per_thread : int }
type limit = Threads | Blocks | Shared_memory | Registers

type result = {
  blocks_per_sm : int;
  limiting : limit;
  regs_spilled_per_thread : int;
}

let calculate_uncached (arch : Arch.t) req =
  (* nvcc caps the registers a thread may keep; the excess is spilled and the
     capped value is what occupancy is computed from. *)
  let spilled = max 0 (req.regs_per_thread - arch.max_regs_per_thread) in
  let regs_held = min req.regs_per_thread arch.max_regs_per_thread in
  let candidates =
    [
      (Threads, arch.max_threads_per_sm / req.threads);
      (Blocks, arch.max_blocks_per_sm);
      ( Shared_memory,
        if req.shared_words = 0 then arch.max_blocks_per_sm
        else if req.shared_words > arch.shared_mem_per_block then 0
        else arch.shared_mem_per_sm / req.shared_words );
      ( Registers,
        if regs_held = 0 then arch.max_blocks_per_sm
        else arch.registers_per_sm / (regs_held * req.threads) );
    ]
  in
  let candidates =
    if req.threads > arch.max_threads_per_block then [ (Threads, 0) ]
    else candidates
  in
  let limiting, blocks =
    List.fold_left
      (fun (bl, bb) (l, b) -> if b < bb then (l, b) else (bl, bb))
      (Blocks, max_int) candidates
  in
  { blocks_per_sm = max 0 blocks; limiting; regs_spilled_per_thread = spilled }

(* The sweep asks about the same few thousand (arch, request) pairs over
   and over (one per kernel pricing), so the pure calculation is memoised:
   one table of requests per architecture, hashed and compared field by
   field.  Validation stays outside the memo so invalid requests raise
   identically whether or not they were seen. *)
module Memo = Hashtbl.Make (struct
  type t = request

  let equal a b =
    a.threads = b.threads
    && a.shared_words = b.shared_words
    && a.regs_per_thread = b.regs_per_thread

  let hash r =
    let h =
      (((r.threads * 65599) + r.shared_words) * 65599) + r.regs_per_thread
    in
    h lxor (h lsr 16)
end)

(* [calculate_uncached] reads exactly these fields of an architecture, so
   two architectures that agree on them share a table whatever their names *)
let same_limits (a : Arch.t) (b : Arch.t) =
  a == b
  || a.max_regs_per_thread = b.max_regs_per_thread
     && a.max_threads_per_sm = b.max_threads_per_sm
     && a.max_threads_per_block = b.max_threads_per_block
     && a.max_blocks_per_sm = b.max_blocks_per_sm
     && a.shared_mem_per_sm = b.shared_mem_per_sm
     && a.shared_mem_per_block = b.shared_mem_per_block
     && a.registers_per_sm = b.registers_per_sm

(* One memo per domain, so no lookup takes a lock: the domains-based sweep
   pool (Parsweep.Dpool) prices points concurrently, and each of its
   workers warms its own tables.  The arch is almost always a preset the
   caller passes by reference, which [==] settles on the first entry. *)
let memo : (Arch.t * result Memo.t) list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let table_for arch =
  let tables = Domain.DLS.get memo in
  let rec find = function
    | (a, t) :: rest -> if same_limits a arch then t else find rest
    | [] ->
        let t = Memo.create 1024 in
        tables := (arch, t) :: !tables;
        t
  in
  find !tables

let memo_hits = Hextime_obs.Metrics.counter "occupancy.memo_hit"
let memo_misses = Hextime_obs.Metrics.counter "occupancy.memo_miss"

let calculate (arch : Arch.t) req =
  if req.threads <= 0 then invalid_arg "Occupancy: threads must be positive";
  if req.shared_words < 0 || req.regs_per_thread < 0 then
    invalid_arg "Occupancy: negative resource request";
  let table = table_for arch in
  match Memo.find table req with
  | r ->
      Hextime_obs.Metrics.incr memo_hits;
      r
  | exception Not_found ->
      Hextime_obs.Metrics.incr memo_misses;
      let r = calculate_uncached arch req in
      Memo.add table req r;
      r

let fits arch req = (calculate arch req).blocks_per_sm >= 1
