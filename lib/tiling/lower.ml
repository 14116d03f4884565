module Ints = Hextime_prelude.Ints
module Stencil = Hextime_stencil.Stencil
module Problem = Hextime_stencil.Problem
module Gpu = Hextime_gpu

type t = {
  green : Gpu.Kernel.t;
  yellow : Gpu.Kernel.t;
  green_launches : int;
  yellow_launches : int;
  footprint : Footprint.t;
  regs_per_thread : int;
  blocks_per_wavefront : int;
}

let validate (problem : Problem.t) (cfg : Config.t) =
  let rank = Array.length problem.space in
  if Config.rank cfg <> rank then Error "configuration rank /= problem rank"
  else if
    Array.exists2 (fun ts s -> ts > s) cfg.t_s problem.space
  then Error "tile size exceeds problem extent"
  else if cfg.t_t > 2 * problem.time then Error "time tile exceeds 2T"
  else Ok ()

(* Per-chunk compute rows: widths from the hexagonal cross-section scaled by
   the inner tile extents (Equations 9, 15, 27: row x computes x * prod(t_s
   inner) points). Equal-width rows come in pairs. *)
let rows_of ~order ~base (cfg : Config.t) =
  let rank = Config.rank cfg in
  let inner = Array.fold_left ( * ) 1 (Array.sub cfg.t_s 1 (rank - 1)) in
  List.map
    (fun d ->
      { Gpu.Workload.points = (base + (2 * order * d)) * inner; repeats = 2 })
    (Ints.range 0 ((cfg.t_t / 2) - 1))

(* [workload] with the validation already done and the footprint and the
   label prefix — both family-invariant — computed by the caller, so
   [compile] pays for them once, not per family *)
let workload_checked (problem : Problem.t) (cfg : Config.t) ~fp ~label_prefix
    ~family =
  let stencil = problem.stencil in
  let order = stencil.Stencil.order in
  let rank = stencil.Stencil.rank in
  let base =
    match family with
    | Hexgeom.Green -> cfg.t_s.(0)
    | Hexgeom.Yellow -> cfg.t_s.(0) + (2 * order)
  in
  let rows = rows_of ~order ~base cfg in
  let threads = Config.total_threads cfg in
  let max_row_points =
    List.fold_left
      (fun acc (r : Gpu.Workload.row) -> max acc r.points)
      1 rows
  in
  let regs =
    Regalloc.per_thread ~stencil_loads:stencil.Stencil.loads ~rank
      ~max_row_points ~threads
  in
  let body =
    {
      Gpu.Pointcost.flops = stencil.Stencil.flops;
      loads = stencil.Stencil.loads;
      transcendentals = stencil.Stencil.transcendentals;
      rank;
      double = problem.Problem.precision = Hextime_stencil.Problem.F64;
    }
  in
  let run_length = cfg.t_s.(rank - 1) in
  let family_name =
    match family with Hexgeom.Green -> "green" | Hexgeom.Yellow -> "yellow"
  in
  Gpu.Workload.v
    ~label:(label_prefix ^ family_name)
    ~threads ~shared_words:fp.Footprint.shared_words ~regs_per_thread:regs
    ~body ~rows
    ~input:{ Gpu.Memory.words = fp.Footprint.input_words; run_length }
    ~output:{ Gpu.Memory.words = fp.Footprint.output_words; run_length }
    ~row_stride:fp.Footprint.inner_stride ~chunks:fp.Footprint.chunks

let label_prefix_of (problem : Problem.t) (cfg : Config.t) =
  let buf = Buffer.create 64 in
  Problem.add_id buf problem;
  Buffer.add_char buf '/';
  Config.add_id buf cfg;
  Buffer.add_char buf '/';
  Buffer.contents buf

let workload (problem : Problem.t) (cfg : Config.t) ~family =
  match validate problem cfg with
  | Error _ as e -> e
  | Ok () ->
      let fp = Footprint.of_problem problem cfg in
      Ok
        (workload_checked problem cfg ~fp
           ~label_prefix:(label_prefix_of problem cfg)
           ~family)

let compile (problem : Problem.t) (cfg : Config.t) =
  match validate problem cfg with
  | Error _ as e -> e
  | Ok () ->
      let fp = Footprint.of_problem problem cfg in
      let label_prefix = label_prefix_of problem cfg in
      let wg =
        workload_checked problem cfg ~fp ~label_prefix ~family:Hexgeom.Green
      in
      let wy =
        workload_checked problem cfg ~fp ~label_prefix ~family:Hexgeom.Yellow
      in
      let stencil = problem.stencil in
      let order = stencil.Stencil.order in
      let blocks =
        Hexgeom.wavefront_width ~order ~t_s:cfg.t_s.(0) ~t_t:cfg.t_t
          ~space:problem.space.(0)
      in
      let launches = Ints.ceil_div problem.time cfg.t_t in
      let green =
        Gpu.Kernel.v ~label:(Gpu.Workload.(wg.label)) ~blocks:[ (wg, blocks) ]
      in
      let yellow =
        Gpu.Kernel.v ~label:(Gpu.Workload.(wy.label)) ~blocks:[ (wy, blocks) ]
      in
      Ok
        {
          green;
          yellow;
          green_launches = launches;
          yellow_launches = launches;
          footprint = fp;
          regs_per_thread = Gpu.Workload.(wg.regs_per_thread);
          blocks_per_wavefront = blocks;
        }

let kernel_sequence t =
  [ (t.yellow, t.yellow_launches); (t.green, t.green_launches) ]

(* --- lowering to the typed kernel IR ----------------------------------- *)

module Ir = Hextime_ir.Ir

let ir_family = function Hexgeom.Green -> Ir.Green | Hexgeom.Yellow -> Ir.Yellow

let ir_rule (stencil : Stencil.t) =
  match stencil.Stencil.rule with
  | Stencil.Linear { taps; constant } ->
      Ir.Linear
        {
          taps =
            List.map
              (fun (t : Stencil.tap) ->
                { Ir.offset = Array.copy t.Stencil.offset; weight = t.Stencil.weight })
              taps;
          constant;
        }
  | Stencil.Nonlinear { offsets; _ } ->
      Ir.Opaque
        {
          offsets = List.map Array.copy offsets;
          note =
            "non-convolutional body (e.g. gradient): loads the offsets \
             below, then applies the user expression";
        }

(* The double-buffer half read at time step r; the write goes to the other
   half.  The staged input lands in Ping, which row 0 reads. *)
let read_half r = if r mod 2 = 0 then Ir.Ping else Ir.Pong

let ir_kernel (problem : Problem.t) (cfg : Config.t) ~family =
  match workload problem cfg ~family with
  | Error _ as e -> e
  | Ok w ->
      let stencil = problem.Problem.stencil in
      let rank = stencil.Stencil.rank in
      let order = stencil.Stencil.order in
      let fp = Footprint.of_problem problem cfg in
      let inner = Array.fold_left ( * ) 1 (Array.sub cfg.t_s 1 (rank - 1)) in
      let extra = match family with Hexgeom.Green -> 0 | Hexgeom.Yellow -> 2 * order in
      let widths = Hexgeom.row_widths ~order ~t_s:cfg.t_s.(0) ~t_t:cfg.t_t in
      let rows =
        List.mapi
          (fun r width ->
            { Ir.r; width; extra; points = (width + extra) * inner })
          widths
      in
      let run_length = cfg.t_s.(rank - 1) in
      let per_chunk =
        [
          Ir.Load_tile
            { words = fp.Footprint.input_words; run_length; dst = Ir.Ping };
          Ir.Sync;
        ]
        @ List.concat_map
            (fun (row : Ir.row) ->
              [
                Ir.Compute_row
                  {
                    Ir.row;
                    reads = read_half row.Ir.r;
                    writes = Ir.other_half (read_half row.Ir.r);
                    stride = fp.Footprint.inner_stride;
                  };
                Ir.Sync;
              ])
            rows
        @ [
            Ir.Store_tile
              {
                words = fp.Footprint.output_words;
                run_length;
                src = read_half cfg.t_t;
              };
            Ir.Sync;
          ]
      in
      let body =
        if fp.Footprint.chunks > 1 then
          [ Ir.Chunk_loop { trips = fp.Footprint.chunks; body = per_chunk } ]
        else per_chunk
      in
      let kernel =
        {
          Ir.name =
            Printf.sprintf "%s_%s" stencil.Stencil.name
              (Hexgeom.family_to_string family);
          family = ir_family family;
          problem_id = Problem.id problem;
          config_id = Config.id cfg;
          threads = w.Gpu.Workload.threads;
          regs_per_thread = w.Gpu.Workload.regs_per_thread;
          rank;
          order;
          word_factor = Problem.word_factor problem;
          t_t = cfg.t_t;
          t_s = Array.copy cfg.t_s;
          space = Array.copy problem.Problem.space;
          time = problem.Problem.time;
          smem_ext =
            Array.map (fun s -> s + (order * cfg.t_t) + 1) cfg.t_s;
          smem_words = fp.Footprint.shared_words;
          rule = ir_rule stencil;
          body;
        }
      in
      (match Ir.validate kernel with
      | Ok () -> Ok kernel
      | Error e -> Error (Printf.sprintf "lowered IR ill-formed: %s" e))

let ir_program (problem : Problem.t) (cfg : Config.t) =
  match
    ( compile problem cfg,
      ir_kernel problem cfg ~family:Hexgeom.Yellow,
      ir_kernel problem cfg ~family:Hexgeom.Green )
  with
  | Error e, _, _ | _, Error e, _ | _, _, Error e -> Error e
  | Ok compiled, Ok ky, Ok kg ->
      let launch (k : Ir.kernel) =
        {
          Ir.kernel_name = k.Ir.name;
          blocks = compiled.blocks_per_wavefront;
          threads = k.Ir.threads;
        }
      in
      Ok
        {
          Ir.host =
            {
              Ir.problem_id = Problem.id problem;
              config_id = Config.id cfg;
              bands = compiled.green_launches;
              per_band = [ launch ky; launch kg ];
              device_sync = true;
            };
          kernels = [ ky; kg ];
        }
