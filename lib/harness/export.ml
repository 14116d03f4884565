module Config = Hextime_tiling.Config
module Model = Hextime_core.Model
module Runner = Hextime_tileopt.Runner

let buffer_csv header rows render =
  let b = Buffer.create 4096 in
  Buffer.add_string b header;
  Buffer.add_char b '\n';
  List.iter
    (fun row ->
      Buffer.add_string b (render row);
      Buffer.add_char b '\n')
    rows;
  Buffer.contents b

let sweep_csv points =
  buffer_csv
    "config,t_t,t_s,threads,predicted_s,measured_s,gflops,k_model,k_measured,spilled"
    points
    (fun (p : Sweep.point) ->
      let cfg = p.Sweep.config in
      Printf.sprintf "%s,%d,%s,%d,%.6e,%.6e,%.2f,%d,%d,%d" (Config.id cfg)
        cfg.Config.t_t
        (String.concat "x"
           (Array.to_list (Array.map string_of_int cfg.Config.t_s)))
        (Config.total_threads cfg) p.Sweep.predicted.Model.talg
        p.Sweep.measured.Runner.time_s p.Sweep.measured.Runner.gflops
        p.Sweep.predicted.Model.k p.Sweep.measured.Runner.resident_blocks
        p.Sweep.measured.Runner.spilled_regs)

let scatter_csv pairs =
  buffer_csv "predicted_s,measured_s" pairs (fun (p, m) ->
      Printf.sprintf "%.6e,%.6e" p m)

let write_file ~path contents =
  match open_out path with
  | oc ->
      let result =
        try
          output_string oc contents;
          Ok ()
        with Sys_error msg -> Error msg
      in
      close_out oc;
      result
  | exception Sys_error msg -> Error msg
