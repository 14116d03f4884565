(** CSV export of sweep data ([hextime validate --csv] and the bench's
    Figure 3 scatter), and the file writer behind [hextime report -o].
    Columns are stable and documented per function. *)

val sweep_csv : Sweep.point list -> string
(** One row per data point:
    [config,t_t,t_s...,threads,predicted_s,measured_s,gflops,k_model,k_measured,spilled]. *)

val scatter_csv : (float * float) list -> string
(** [predicted_s,measured_s] rows (Figure 3 coordinates). *)

val write_file : path:string -> string -> (unit, string) result
(** Write a CSV to disk; errors are returned, not raised. *)
