type t = { label : string; blocks : (Workload.t * int) list }

let v ~label ~blocks =
  if blocks = [] then invalid_arg "Kernel.v: no blocks";
  List.iter
    (fun (_, count) -> if count <= 0 then invalid_arg "Kernel.v: count <= 0")
    blocks;
  { label; blocks }

let total_blocks k = List.fold_left (fun acc (_, c) -> acc + c) 0 k.blocks

let total_points k =
  List.fold_left
    (fun acc (w, c) -> acc + (Workload.total_points w * c))
    0 k.blocks

(* on the pricing path: ints compared by [if], not the polymorphic [max] *)
let[@inline] larger (a : int) b = if a >= b then a else b

let max_request k =
  List.fold_left
    (fun (acc : Occupancy.request) ((w : Workload.t), _) ->
      {
        Occupancy.threads = larger acc.threads w.threads;
        shared_words = larger acc.shared_words w.shared_words;
        regs_per_thread = larger acc.regs_per_thread w.regs_per_thread;
      })
    { Occupancy.threads = 1; shared_words = 0; regs_per_thread = 0 }
    k.blocks

let pp ppf k =
  Format.fprintf ppf "kernel %s: %d blocks (%d shapes)" k.label
    (total_blocks k) (List.length k.blocks)
