(** Reproductions of the paper's tables as pipe tables, printed by
    {!Report.markdown} (Table 1 is {!Hextime_core.Glossary.render}).

    - Table 2: GPU configuration (architecture presets);
    - Table 3: micro-benchmarked timing constants L, tau_sync, T_sync;
    - Table 4: micro-benchmarked C_iter per benchmark and machine. *)

val table2 : unit -> Hextime_prelude.Tabulate.t
val table3 : unit -> Hextime_prelude.Tabulate.t
val table4 : unit -> Hextime_prelude.Tabulate.t

val table3_data : unit -> (string * float * float * float) list
(** Per architecture: (name, L in s/GB, tau_sync, T_sync). *)

val table4_data : unit -> (string * (string * float) list) list
(** Per benchmark: C_iter per architecture. *)
