module Stats = Hextime_prelude.Stats
module Tabulate = Hextime_prelude.Tabulate

(* The paper's reference values, keyed by artifact; each is printed under
   the reproduced artifact it belongs to. *)
let paper =
  [
    ( "Table 3",
      "GTX 980 / Titan X: L = 7.36e-03 / 5.42e-03 s/GB; tau_sync = 7.96e-10 \
       / 6.74e-10 s; T_sync = 9.24e-07 / 9.00e-07 s" );
    ( "Table 4",
      "GTX 980 / Titan X: jacobi2d 3.39e-08 / 3.83e-08, heat2d 3.68e-08 / \
       4.23e-08, laplacian2d 3.11e-08 / 3.81e-08, gradient2d 6.09e-08 / \
       7.60e-08, heat3d 1.55e-07 / 1.64e-07, laplacian3d 1.36e-07 / 1.44e-07" );
    ( "Figure 3",
      "RMSE 45-200% over full sweeps; below 10% on the subset within 20% of \
       the best throughput" );
    ("Figure 5", "19.8 s baseline vs 16.5 s model-guided (+17%)");
    ( "Figure 6",
      "model-guided +60% over the HHC default, +9% over the baseline" );
  ]

let fig3_summary (rows : Figures.fig3_row list) =
  match rows with
  | [] -> []
  | _ ->
      let pcts f = List.map (fun r -> 100.0 *. f r.Figures.summary) rows in
      let tops = pcts (fun s -> s.Validation.rmse_top)
      and alls = pcts (fun s -> s.Validation.rmse_all) in
      [
        Printf.sprintf
          "Top-band RMSE range: %.1f%%-%.1f%%; all-points RMSE range: \
           %.0f%%-%.0f%%."
          (Stats.minimum tops) (Stats.maximum tops) (Stats.minimum alls)
          (Stats.maximum alls);
      ]

(* Geometric-mean gain of the within-10% strategy over each other one,
   across the figure's (stencil, machine) rows. *)
let fig6_summary (rows : Figures.fig6_row list) =
  let gain other =
    let rs =
      List.filter_map
        (fun (r : Figures.fig6_row) ->
          match
            ( List.assoc_opt "Within 10% of Talg_min" r.Figures.per_strategy,
              List.assoc_opt other r.Figures.per_strategy )
          with
          | Some a, Some o when o > 0.0 && not (Float.is_nan a) ->
              Some (a /. o)
          | _ -> None)
        rows
    in
    if rs = [] then None else Some (100.0 *. (Stats.geomean rs -. 1.0))
  in
  match (gain "HHC", gain "Baseline", gain "Talg_min") with
  | Some h, Some b, Some m ->
      [
        Printf.sprintf
          "Model-guided vs HHC default: %+.0f%%; vs baseline: %+.1f%%; vs \
           bare Talg_min: %+.1f%%."
          h b m;
      ]
  | _ -> []

(* hexwatch trend section: the last few ledger entries as a markdown
   table, or nothing when the ledger is absent/empty — the report must
   stay generatable on a fresh checkout. *)
let trend_section ledger =
  match ledger with
  | None -> ""
  | Some path -> (
      match Hextime_obs.Ledger.load ~path with
      | Error _ -> ""
      | Ok { Hextime_obs.Ledger.entries = []; _ } -> ""
      | Ok { Hextime_obs.Ledger.entries; _ } ->
          let recent = Hextime_obs.Ledger.latest 10 entries in
          Printf.sprintf
            "\n## Trend — recent runs (hexwatch ledger)\n\n\
             Last %d of %d ledger entries from `%s`; regenerate or widen \
             with `hextime history`.\n\n\
             %s\n"
            (List.length recent) (List.length entries) path
            (History.markdown recent))

let markdown ?ledger scale =
  let b = Buffer.create 32768 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pf "# hextime reproduction report (scale: %s)\n\n"
    (Experiments.scale_to_string scale);
  pf
    "Every table and figure below is regenerated from live runs against \
     the GPU simulator substrate; the paper's own values follow each one.\n";
  let artifact name body summary =
    pf "\n## %s\n\n%s" name body;
    List.iter (pf "\n%s\n") summary;
    match List.assoc_opt name paper with
    | Some v -> pf "\nPaper: %s.\n" v
    | None -> ()
  in
  artifact "Table 1" (Hextime_core.Glossary.render ()) [];
  artifact "Table 2" (Tabulate.render (Tables.table2 ())) [];
  artifact "Table 3" (Tabulate.render (Tables.table3 ())) [];
  artifact "Table 4" (Tabulate.render (Tables.table4 ())) [];
  let rows3 = Figures.fig3_data scale in
  artifact "Figure 3" (Figures.render_fig3 rows3) (fig3_summary rows3);
  artifact "Figure 4" (Figures.render_fig4 (Figures.fig4_data ())) [];
  artifact "Figure 5" (Figures.render_fig5 (Figures.fig5_data ~scale ())) [];
  let rows6 = Figures.fig6_data scale in
  artifact "Figure 6" (Figures.render_fig6 rows6) (fig6_summary rows6);
  Buffer.add_string b (trend_section ledger);
  Buffer.contents b

let write ?ledger ~path scale =
  Export.write_file ~path (markdown ?ledger scale)
