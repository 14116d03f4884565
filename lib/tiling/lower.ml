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

(* one family's rows, its widest row (the register estimate's input) and
   its label suffix *)
type family_rows = {
  rows : Gpu.Workload.row list;
  widest : int;
  name : string;
}

type shape = {
  origin : Config.t;  (* the configuration the shape was lowered from *)
  footprint : Footprint.t;
  green_rows : family_rows;
  yellow_rows : family_rows;
  body : Gpu.Pointcost.body;
  input : Gpu.Memory.transfer;
  output : Gpu.Memory.transfer;
  blocks : int;
  launches : int;
  label_prefix : string;  (* ["<problem id>/tT..-tS..-thr"] *)
}

let shape_half (problem : Problem.t) (cfg : Config.t) =
  match validate problem cfg with
  | Error _ as e -> e
  | Ok () ->
      let stencil = problem.stencil in
      let order = stencil.Stencil.order in
      let rank = stencil.Stencil.rank in
      let family base name =
        let rows = rows_of ~order ~base cfg in
        let widest =
          List.fold_left
            (fun acc (r : Gpu.Workload.row) -> max acc r.points)
            1 rows
        in
        { rows; widest; name }
      in
      let fp = Footprint.of_problem problem cfg in
      let run_length = cfg.t_s.(rank - 1) in
      let label_prefix =
        let buf = Buffer.create 64 in
        Problem.add_id buf problem;
        Buffer.add_char buf '/';
        Config.add_id_prefix buf cfg;
        Buffer.contents buf
      in
      Ok
        {
          origin = cfg;
          footprint = fp;
          green_rows = family cfg.t_s.(0) "green";
          yellow_rows = family (cfg.t_s.(0) + (2 * order)) "yellow";
          body =
            {
              Gpu.Pointcost.flops = stencil.Stencil.flops;
              loads = stencil.Stencil.loads;
              transcendentals = stencil.Stencil.transcendentals;
              rank;
              double = problem.Problem.precision = Problem.F64;
            };
          input = { Gpu.Memory.words = fp.Footprint.input_words; run_length };
          output = { Gpu.Memory.words = fp.Footprint.output_words; run_length };
          blocks =
            Hexgeom.wavefront_width ~order ~t_s:cfg.t_s.(0) ~t_t:cfg.t_t
              ~space:problem.space.(0);
          launches = Ints.ceil_div problem.time cfg.t_t;
          label_prefix;
        }

let label_prefix sh = sh.label_prefix

(* The per-block workload of one family: the register estimate and the
   label are all a thread count changes. *)
let family_workload sh ~threads ~thr_label (f : family_rows) =
  let fp = sh.footprint in
  Gpu.Workload.v ~label:(thr_label ^ f.name) ~threads
    ~shared_words:fp.Footprint.shared_words
    ~regs_per_thread:
      (Regalloc.per_thread ~stencil_loads:sh.body.Gpu.Pointcost.loads
         ~rank:sh.body.Gpu.Pointcost.rank ~max_row_points:f.widest ~threads)
    ~body:sh.body ~rows:f.rows ~input:sh.input ~output:sh.output
    ~row_stride:fp.Footprint.inner_stride ~chunks:fp.Footprint.chunks

(* ["<problem id>/<config id>/"], the labels' common part *)
let thr_label sh (cfg : Config.t) =
  let buf = Buffer.create (String.length sh.label_prefix + 16) in
  Buffer.add_string buf sh.label_prefix;
  Ints.add_dims buf cfg.threads;
  Buffer.add_char buf '/';
  Buffer.contents buf

let thread_half sh (cfg : Config.t) =
  if not (Config.same_shape cfg sh.origin) then
    invalid_arg "Lower.thread_half: configuration of another tile shape";
  let thr_label = thr_label sh cfg in
  let threads = Config.total_threads cfg in
  let wg = family_workload sh ~threads ~thr_label sh.green_rows in
  let wy = family_workload sh ~threads ~thr_label sh.yellow_rows in
  let kernel (w : Gpu.Workload.t) =
    Gpu.Kernel.v ~label:w.label ~blocks:[ (w, sh.blocks) ]
  in
  {
    green = kernel wg;
    yellow = kernel wy;
    green_launches = sh.launches;
    yellow_launches = sh.launches;
    footprint = sh.footprint;
    regs_per_thread = wg.regs_per_thread;
    blocks_per_wavefront = sh.blocks;
  }

let compile problem cfg =
  Result.map (fun sh -> thread_half sh cfg) (shape_half problem cfg)

let workload_of sh (cfg : Config.t) ~family =
  family_workload sh ~threads:(Config.total_threads cfg)
    ~thr_label:(thr_label sh cfg)
    (match family with
    | Hexgeom.Green -> sh.green_rows
    | Hexgeom.Yellow -> sh.yellow_rows)

let workload problem cfg ~family =
  Result.map (fun sh -> workload_of sh cfg ~family) (shape_half problem cfg)

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
  match shape_half problem cfg with
  | Error _ as e -> e
  | Ok sh ->
      let w = workload_of sh cfg ~family in
      let stencil = problem.Problem.stencil in
      let rank = stencil.Stencil.rank in
      let order = stencil.Stencil.order in
      let fp = sh.footprint in
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
