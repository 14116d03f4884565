module Arch = Hextime_gpu.Arch
module Problem = Hextime_stencil.Problem
module Params = Hextime_core.Params
module Model = Hextime_core.Model
module Config = Hextime_tiling.Config
module Space = Hextime_tileopt.Space
module Attribution = Hextime_obs.Attribution
module Det_hash = Hextime_prelude.Det_hash
module Microbench = Hextime_harness.Microbench
module Optimizer = Hextime_tileopt.Optimizer
module Trace = Hextime_obs.Trace

(* Bump whenever the recommendation a digest maps to can change meaning:
   the model, the solver's arg-min semantics, or the thread-selection rule.
   Index entries and request keys from older code must miss. *)
let code_version = "hextime-serve-v2"

type answer = {
  a_config : Config.t;
  a_talg : float;
  a_components : Attribution.components;
}

(* [request_key]'s constant part, mixed once per process *)
let key_seed =
  Det_hash.mix_string (Det_hash.create "hextime-ask") code_version

let key_prefix = "ask|" ^ code_version ^ "|"

(* Digest the pricing inputs, not their names: a request's answer is a
   function of exactly the code version, the architecture's numeric
   description, the derived model parameters, the stencil's measured
   C_iter, and the problem instance.  Renaming an architecture or reshuffling presets leaves the
   key unchanged; touching any number the recommendation depends on
   invalidates it. *)
let request_key (arch : Arch.t) (problem : Problem.t) =
  let params = Microbench.params arch in
  let citer = Microbench.citer arch problem.Problem.stencil in
  let h = Arch.mix_pricing key_seed arch in
  let h = Params.mix_pricing h params in
  let h = Det_hash.mix_float h citer in
  let h = Problem.mix_pricing h problem in
  (* the bytes of [Printf.sprintf "%s%016Lx" key_prefix digest] *)
  let digest = Det_hash.to_int64 h in
  let p = String.length key_prefix in
  let key = Bytes.create (p + 16) in
  Bytes.blit_string key_prefix 0 key 0 p;
  for i = 0 to 15 do
    let d =
      Int64.to_int (Int64.shift_right_logical digest (60 - (4 * i))) land 0xf
    in
    Bytes.unsafe_set key (p + i)
      (Char.unsafe_chr (if d < 10 then 48 + d else 87 + d))
  done;
  Bytes.unsafe_to_string key

(* Thread-per-block choice for the recommended configuration.  Talg does
   not depend on threads (a deliberate model property, Section 7), so the
   arg-min is a shape; 256 is the empirical default the CLI's tune
   command uses for the pure-model pick, with a fallback for shapes whose
   structural constraints reject it. *)
let config_of_shape (shape : Space.shape) =
  let try_threads n =
    match Space.to_config shape ~threads:[| n |] with
    | cfg -> Some cfg
    | exception Invalid_argument _ -> None
  in
  match try_threads 256 with
  | Some cfg -> Ok cfg
  | None -> (
      match try_threads 128 with
      | Some cfg -> Ok cfg
      | None -> Error "advisor: no valid thread count for the arg-min shape")

let solve ?(req_id = "") (arch : Arch.t) (problem : Problem.t) =
  (* The span carries the serving request id, so a slow cold solve in a
     trace dump is attributable to the request that paid for it. *)
  Trace.with_span "advisor.solve" ~cat:"serve"
    ~args:(fun () ->
      [
        ("req_id", req_id);
        ("arch", arch.Arch.name);
        ("stencil", problem.Problem.stencil.Hextime_stencil.Stencil.name);
      ])
    (fun () ->
      let params = Microbench.params arch in
      let citer = Microbench.citer arch problem.Problem.stencil in
      (* The paper's own procedure (Section 6.1): evaluate the model on
         every feasible shape of the lattice and keep the minimum — the
         same arg-min [audit] and every cross-check recompute, so a served
         answer equals a recomputed one by construction. *)
      match Optimizer.evaluate_space params ~citer problem with
      | [] -> Error "advisor: empty feasible space"
      | evaluated -> (
          match config_of_shape (Optimizer.best evaluated).Optimizer.shape with
          | Error e -> Error e
          | Ok cfg -> (
              match Model.attribution params ~citer problem cfg with
              | Error e -> Error (Printf.sprintf "advisor: attribution: %s" e)
              | Ok (prediction, components) ->
                  Ok
                    {
                      a_config = cfg;
                      a_talg = prediction.Model.talg;
                      a_components = components;
                    })))

(* --- online drift auditing ------------------------------------------------- *)

type audit = {
  au_exact_talg : float;
  au_config_talg : float;
  au_served_talg : float;
  au_rel_err : float;
  au_in_band : bool;
  au_argmin_match : bool;
  au_feasible : int;
}

(* Re-verify a served answer against the ground truth the index is supposed
   to cache: the exhaustive arg-min over the feasible space, recomputed with
   the *current* model.  Two independent failure modes both land out of
   band: a configuration that was never (or is no longer) within the
   paper's 20% band of the arg-min, and a stale served Talg that no longer
   matches what the model says about that same configuration. *)
let audit ?(band_tol = 0.2) (arch : Arch.t) (problem : Problem.t)
    ~(config : Config.t) ~(talg : float) =
  let params = Microbench.params arch in
  let citer = Microbench.citer arch problem.Problem.stencil in
  match Optimizer.evaluate_space params ~citer problem with
  | [] -> Error "audit: empty feasible space"
  | evaluated ->
      let exact = Optimizer.best evaluated in
      let exact_talg = exact.Optimizer.prediction.Model.talg in
      let config_talg =
        match Model.predict params ~citer problem config with
        | Ok p -> p.Model.talg
        | Error _ -> Float.nan
      in
      let rel_err = (config_talg -. exact_talg) /. exact_talg in
      (* NaN-safe: a rejected config (config_talg = NaN) fails both
         comparisons and lands out of band, as it should. *)
      let in_band =
        config_talg <= (1.0 +. band_tol) *. exact_talg
        && Float.abs (talg -. config_talg) <= 1e-9 *. Float.abs config_talg
      in
      let argmin_match =
        (* threads excluded: Talg is thread-independent by construction,
           so the serving thread policy is not part of the arg-min. *)
        let best_shape = exact.Optimizer.shape in
        match config_of_shape best_shape with
        | Error _ -> false
        | Ok best_cfg ->
            config.Config.t_t = best_cfg.Config.t_t
            && config.Config.t_s = best_cfg.Config.t_s
      in
      Ok
        {
          au_exact_talg = exact_talg;
          au_config_talg = config_talg;
          au_served_talg = talg;
          au_rel_err = rel_err;
          au_in_band = in_band;
          au_argmin_match = argmin_match;
          au_feasible = List.length evaluated;
        }
