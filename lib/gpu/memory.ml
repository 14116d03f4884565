(* As in Compute: local [@inline] helpers and int comparisons by [if], so
   [block_transfer_s] makes no call but into Arch, whose calls dev builds
   (-opaque) cannot inline. *)

type transfer = { words : int; run_length : int }

(* [Ints.ceil_div] for non-negative [a] and positive [b] *)
let[@inline] ceil_div a b = (a + b - 1) / b

let[@inline] coalescing_factor (arch : Arch.t) ~run_length =
  if run_length <= 0 then invalid_arg "Memory.coalescing_factor";
  let w = arch.warp_size in
  if run_length >= w then
    (* long runs: only the ragged tail of each run is padding *)
    let waste = float_of_int ((ceil_div run_length w * w) - run_length) in
    1.0 +. (waste /. float_of_int run_length)
  else (float_of_int w /. float_of_int run_length *. 0.5) +. 0.5

(* congestion: resident blocks beyond the first that stream concurrently get
   diminishing shares of the SM's bandwidth slice *)
let[@inline] congestion concurrent_blocks =
  let beyond_first = if concurrent_blocks > 1 then concurrent_blocks - 1 else 0 in
  1.0 +. (0.30 *. float_of_int beyond_first)

(* every contiguous run is a separate burst of transactions; issuing it
   costs a few cycles of address setup in the load/store pipeline *)
let run_issue_cycles = 20.0

let block_transfer_s (arch : Arch.t) ~concurrent_blocks t =
  if concurrent_blocks < 1 then invalid_arg "Memory.block_transfer_s";
  if t.words < 0 then invalid_arg "Memory.block_transfer_s: negative words";
  if t.words = 0 then 0.0
  else
    let per_word =
      (* the device bandwidth is partitioned across SMs; a single block sees
         its SM's slice, degraded by coalescing waste and congestion *)
      Arch.word_transfer_s arch *. float_of_int arch.n_sm
      *. coalescing_factor arch ~run_length:t.run_length
      *. congestion concurrent_blocks
    in
    let runs = float_of_int (ceil_div t.words t.run_length) in
    let latency =
      Arch.seconds_of_cycles arch
        (float_of_int arch.dram_latency_cycles +. (runs *. run_issue_cycles))
    in
    latency +. (float_of_int t.words *. per_word)

let spill_traffic_s arch ~words =
  if words < 0.0 then invalid_arg "Memory.spill_traffic_s";
  (* local-memory traffic is scattered; charge 4x the streaming word cost on
     the SM's bandwidth slice *)
  words *. Arch.word_transfer_s arch *. float_of_int arch.n_sm *. 4.0
