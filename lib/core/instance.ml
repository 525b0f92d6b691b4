open Wl_digraph
module Dag = Wl_dag.Dag
module Flat = Wl_util.Flat

(* The arc index is CSR-shaped: [ids.(off.(a) .. off.(a+1) - 1)] are the
   family indices whose dipath uses arc [a], ascending.  Two flat
   Bigarray-backed int arrays instead of an [int list array] keep every
   hot loop (load profiles, conflict-pair emission, Theorem 1 insertion)
   allocation-free and cache friendly — and keep the index itself off
   the OCaml heap, so big instances do not inflate GC scan times. *)
type t = {
  dag : Dag.t;
  paths : Dipath.t array;
  off : Flat.t; (* length n_arcs + 1 *)
  ids : Flat.t; (* length = total arc count over the family *)
}

let build_index g paths =
  let m = Digraph.n_arcs g in
  let off = Array.make (m + 1) 0 in
  let arcs = Array.map Dipath.arc_array paths in
  Array.iter (Array.iter (fun a -> off.(a + 1) <- off.(a + 1) + 1)) arcs;
  for a = 1 to m do
    off.(a) <- off.(a) + off.(a - 1)
  done;
  let ids = Array.make off.(m) 0 in
  let cursor = Array.make m 0 in
  (* Filling in increasing family order keeps every slice ascending. *)
  Array.iteri
    (fun i p_arcs ->
      Array.iter
        (fun a ->
          ids.(off.(a) + cursor.(a)) <- i;
          cursor.(a) <- cursor.(a) + 1)
        p_arcs)
    arcs;
  (Flat.of_array off, Flat.of_array ids)

let of_array dag paths =
  let paths = Array.copy paths in
  let off, ids = build_index (Dag.graph dag) paths in
  { dag; paths; off; ids }

let make dag path_list = of_array dag (Array.of_list path_list)

let of_vertex_seqs g seqs =
  match Dag.of_digraph g with
  | Error msg -> Error (Error.Cyclic msg)
  | Ok dag ->
    let rec build acc = function
      | [] -> Ok (make dag (List.rev acc))
      | verts :: rest -> (
        match Dipath.of_vertices g verts with
        | Ok p -> build (p :: acc) rest
        | Error msg -> Error (Error.Invalid_path msg))
    in
    build [] seqs

let dag t = t.dag
let graph t = Dag.graph t.dag
let n_paths t = Array.length t.paths

let path t i =
  if i < 0 || i >= n_paths t then invalid_arg "Instance.path: bad index";
  t.paths.(i)

let paths t = Array.copy t.paths
let paths_list t = Array.to_list t.paths

let add_paths t extra =
  (* Single array append, then one re-index pass; the old
     [Array.to_list t.paths @ extra] rebuild was quadratic. *)
  of_array t.dag (Array.append t.paths (Array.of_list extra))

let check_arc t a =
  if a < 0 || a >= Digraph.n_arcs (graph t) then
    invalid_arg "Instance.paths_through: bad arc"

(* After [check_arc], [a] and [a + 1] are structurally valid indices
   into [off] (length n_arcs + 1), so the reads below go unchecked. *)

let n_paths_through t a =
  check_arc t a;
  Flat.unsafe_get t.off (a + 1) - Flat.unsafe_get t.off a

let paths_through_iter t a f =
  check_arc t a;
  for i = Flat.unsafe_get t.off a to Flat.unsafe_get t.off (a + 1) - 1 do
    f (Flat.unsafe_get t.ids i)
  done

let csr_index t = (t.off, t.ids)

(* Hoisted single pass for the load maximum: every [off] cell is read
   exactly once (the two-reads-per-arc [n_paths_through] loop pays the
   Bigarray indirection twice), top-level and accumulator-threaded so
   the scan allocates nothing. *)
let rec max_load_scan off m a prev best =
  if a > m then best
  else
    let cur = Flat.unsafe_get off a in
    max_load_scan off m (a + 1) cur
      (if cur - prev > best then cur - prev else best)

let max_arc_load t = max_load_scan t.off (Flat.length t.off - 1) 1 0 0
