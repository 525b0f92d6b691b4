open Wl_digraph
module Prng = Wl_util.Prng

(* First-fit in an explicit processing order (a permutation of family
   indices). *)
let first_fit_order order inst =
  let n = Instance.n_paths inst in
  let g = Instance.graph inst in
  let assignment = Array.make n (-1) in
  (* Occupancy per arc: colors in use by already-assigned dipaths. *)
  let occupied = Array.make (max 1 (Digraph.n_arcs g)) [] in
  Array.iter
    (fun i ->
      let arcs = Dipath.arcs (Instance.path inst i) in
      let used = List.concat_map (fun a -> occupied.(a)) arcs in
      let rec smallest c = if List.mem c used then smallest (c + 1) else c in
      let c = smallest 0 in
      assignment.(i) <- c;
      List.iter (fun a -> occupied.(a) <- c :: occupied.(a)) arcs)
    order;
  assignment

let first_fit inst =
  first_fit_order (Array.init (Instance.n_paths inst) Fun.id) inst

let first_fit_random rng inst =
  first_fit_order (Prng.permutation rng (Instance.n_paths inst)) inst
