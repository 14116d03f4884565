(** Markdown reproduction report: the one renderer of the paper's whole
    evaluation, regenerated from live runs.

    [markdown scale] prints, in paper order, Table 1 (the parameter
    glossary), Tables 2–4 and Figures 3–6 through the {!Tables} and
    {!Figures} renderers, each followed by its measured summary line and
    the paper's reference values.  [scale] sets the problem grid of
    Figures 3, 5 and 6; Figure 4 is always the paper's 8192^2, T = 8192
    instance. *)

val markdown : ?ledger:string -> Experiments.scale -> string
(** [?ledger] names a hexwatch run-ledger file (see
    {!Hextime_obs.Ledger}); when given and readable, the report ends with
    a trend section over the most recent entries.  An absent or empty
    ledger renders nothing — the report stays generatable on a fresh
    checkout. *)

val write :
  ?ledger:string -> path:string -> Experiments.scale -> (unit, string) result
(** Render and write to [path]. *)
