type t = {
  name : string;
  n_sm : int;
  n_vector : int;
  warp_size : int;
  shared_mem_per_sm : int;
  shared_mem_per_block : int;
  registers_per_sm : int;
  max_regs_per_thread : int;
  max_blocks_per_sm : int;
  max_threads_per_sm : int;
  max_threads_per_block : int;
  shared_banks : int;
  clock_ghz : float;
  dram_bandwidth_gbs : float;
  dram_efficiency : float;
  dram_latency_cycles : int;
  launch_overhead_s : float;
  sync_cycles : int;
}

let words_of_kb kb = kb * 1024 / 4

let gtx980 =
  {
    name = "gtx980";
    n_sm = 16;
    n_vector = 128;
    warp_size = 32;
    shared_mem_per_sm = words_of_kb 96;
    shared_mem_per_block = words_of_kb 48;
    registers_per_sm = 65536;
    max_regs_per_thread = 255;
    max_blocks_per_sm = 32;
    max_threads_per_sm = 2048;
    max_threads_per_block = 1024;
    shared_banks = 32;
    clock_ghz = 1.126;
    dram_bandwidth_gbs = 224.0;
    dram_efficiency = 0.60;
    dram_latency_cycles = 350;
    launch_overhead_s = 9.2e-7;
    sync_cycles = 1;
  }

let titanx =
  {
    gtx980 with
    name = "titanx";
    n_sm = 24;
    clock_ghz = 1.0;
    dram_bandwidth_gbs = 336.0;
    dram_efficiency = 0.55;
    launch_overhead_s = 9.0e-7;
  }

let presets = [ gtx980; titanx ]

let find name =
  match List.find_opt (fun a -> a.name = name) presets with
  | Some a -> a
  | None -> raise Not_found

(* Every field the simulator prices from — and deliberately NOT [name].
   The advisor's request keys and the calibration memos are built from this
   digest, so renaming an architecture (or adding an unrelated preset)
   keeps them, while touching any number a kernel's time depends on
   changes them. *)
let mix_pricing h a =
  let module D = Hextime_prelude.Det_hash in
  let h = D.mix_int h a.n_sm in
  let h = D.mix_int h a.n_vector in
  let h = D.mix_int h a.warp_size in
  let h = D.mix_int h a.shared_mem_per_sm in
  let h = D.mix_int h a.shared_mem_per_block in
  let h = D.mix_int h a.registers_per_sm in
  let h = D.mix_int h a.max_regs_per_thread in
  let h = D.mix_int h a.max_blocks_per_sm in
  let h = D.mix_int h a.max_threads_per_sm in
  let h = D.mix_int h a.max_threads_per_block in
  let h = D.mix_int h a.shared_banks in
  let h = D.mix_float h a.clock_ghz in
  let h = D.mix_float h a.dram_bandwidth_gbs in
  let h = D.mix_float h a.dram_efficiency in
  let h = D.mix_int h a.dram_latency_cycles in
  let h = D.mix_float h a.launch_overhead_s in
  D.mix_int h a.sync_cycles

let cycle_s a = 1e-9 /. a.clock_ghz
let seconds_of_cycles a c = c *. cycle_s a

let word_transfer_s a =
  4.0 /. (a.dram_bandwidth_gbs *. 1e9 *. a.dram_efficiency)

let pp ppf a =
  Format.fprintf ppf
    "%s: %d SMs x %d lanes @ %.3f GHz, %d KB smem/SM, %.0f GB/s" a.name a.n_sm
    a.n_vector a.clock_ghz (a.shared_mem_per_sm * 4 / 1024) a.dram_bandwidth_gbs
