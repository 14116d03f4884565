(** The tile advisor's answer computation: one (architecture, problem)
    query in, one recommended configuration out.

    This is the hexserve cold path and the index builder's worker, shared
    so a cold miss served live and an index entry built offline are
    guaranteed to agree.  The solver is the paper's (Section 6.1): the
    model is evaluated on every feasible shape of the tile lattice
    ({!Hextime_tileopt.Optimizer.evaluate_space}, at most 1,664 shapes)
    and the minimum kept ({!Hextime_tileopt.Optimizer.best}), so the
    answer is the exhaustive arg-min that {!audit} and every cross-check
    recompute.  The answer carries the predicted Talg plus its Section-5
    cost attribution. *)

val code_version : string
(** Versions {!request_key} and the index schema together: bump it and
    every cached recommendation misses. *)

type answer = {
  a_config : Hextime_tiling.Config.t;  (** recommended configuration *)
  a_talg : float;  (** predicted T_alg at the recommendation, seconds *)
  a_components : Hextime_obs.Attribution.components;
      (** Section-5 breakdown of [a_talg] *)
}

val request_key : Hextime_gpu.Arch.t -> Hextime_stencil.Problem.t -> string
(** Digest of everything the answer depends on — code version, the
    architecture's pricing numbers, the derived model parameters, the
    measured C_iter, the problem instance: pricing-neutral edits
    (renames, preset reshuffles) keep the key, pricing changes invalidate
    it.  Forces the (memoized)
    micro-benchmarks for the architecture on first use.  The key reads
    [ask|<code_version>|<16 lowercase hex digits>]; saved indexes are
    keyed by these bytes. *)

val config_of_shape :
  Hextime_tileopt.Space.shape -> (Hextime_tiling.Config.t, string) result
(** Attach the serving thread-count policy (256 threads per block, falling
    back to 128 when the shape's structural constraints reject it). *)

val solve :
  ?req_id:string ->
  Hextime_gpu.Arch.t ->
  Hextime_stencil.Problem.t ->
  (answer, string) result
(** Compute the recommendation from scratch (the cold path): the
    exhaustive-sweep arg-min shape ({!config_of_shape} picks its threads),
    with a predicted Talg bit-equal to the sweep's minimum.  [Error] when
    the feasible space is empty.  When tracing is enabled the solve is
    wrapped in an [advisor.solve] span carrying [req_id] (the serving
    request id), so a slow cold solve is attributable to the request that
    paid for it. *)

(** {1 Online drift auditing}

    The paper's structural-accuracy claim — the optimistic model is
    accurate on the top band and its arg-min stays in-band — validated
    {e live} against a served answer instead of offline against a
    baseline file. *)

type audit = {
  au_exact_talg : float;
      (** predicted Talg of the exhaustive-sweep arg-min, recomputed now *)
  au_config_talg : float;
      (** the model's {e current} prediction for the served configuration
          (NaN if the model now rejects it) *)
  au_served_talg : float;  (** the Talg the client was told *)
  au_rel_err : float;
      (** relative Talg error of the served answer vs the exhaustive
          arg-min: [(config_talg - exact_talg) / exact_talg] *)
  au_in_band : bool;
      (** the served configuration's current prediction is within
          [band_tol] of the exhaustive arg-min {e and} the served Talg
          still matches the model's prediction for it (a stale index
          fails either way) *)
  au_argmin_match : bool;
      (** served tile shape equals the exhaustive arg-min's (threads
          excluded: Talg is thread-independent by construction) *)
  au_feasible : int;  (** feasible shapes enumerated by the audit *)
}

val audit :
  ?band_tol:float ->
  Hextime_gpu.Arch.t ->
  Hextime_stencil.Problem.t ->
  config:Hextime_tiling.Config.t ->
  talg:float ->
  (audit, string) result
(** Re-verify a served answer against the exhaustive arg-min.
    [band_tol] defaults to [0.2], the paper's Section-6 20% band (the
    same tolerance the offline accuracy gate uses for [argmin_in_band]).
    [Error] only when the feasible space is empty. *)
