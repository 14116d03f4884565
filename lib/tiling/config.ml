module Ints = Hextime_prelude.Ints

type t = { t_t : int; t_s : int array; threads : int array }

let make ~t_t ~t_s ~threads =
  let rank = Array.length t_s in
  if rank < 1 || rank > 3 then Error "tile rank must be 1..3"
  else if t_t <= 0 then Error "t_t must be positive"
  else if t_t mod 2 <> 0 then Error "t_t must be even (hexagonal tiling)"
  else if Array.exists (fun s -> s <= 0) t_s then
    Error "tile sizes must be positive"
  else if rank > 1 && t_s.(rank - 1) mod 32 <> 0 then
    Error "innermost tile size must be a multiple of 32"
  else if Array.length threads < 1 then Error "need at least one thread dim"
  else if Array.exists (fun n -> n <= 0) threads then
    Error "thread counts must be positive"
  else Ok { t_t; t_s = Array.copy t_s; threads = Array.copy threads }

let make_exn ~t_t ~t_s ~threads =
  match make ~t_t ~t_s ~threads with
  | Ok c -> c
  | Error msg -> invalid_arg ("Config.make: " ^ msg)

let rank c = Array.length c.t_s
let total_threads c = Array.fold_left ( * ) 1 c.threads

let add_id_prefix buf c =
  Buffer.add_string buf "tT";
  Ints.add_decimal buf c.t_t;
  Buffer.add_string buf "-tS";
  Ints.add_dims buf c.t_s;
  Buffer.add_string buf "-thr"

let add_id buf c =
  add_id_prefix buf c;
  Ints.add_dims buf c.threads

let id c =
  let buf = Buffer.create 32 in
  add_id buf c;
  Buffer.contents buf

let pp ppf c = Format.pp_print_string ppf (id c)
let equal a b = a.t_t = b.t_t && a.t_s = b.t_s && a.threads = b.threads
let compare = Stdlib.compare

let same_shape a b =
  a.t_t = b.t_t
  && Array.length a.t_s = Array.length b.t_s
  && Array.for_all2 Int.equal a.t_s b.t_s
