type t = int array

let first_conflict inst assignment =
  let n = Instance.n_paths inst in
  if Array.length assignment <> n then
    invalid_arg "Assignment: length mismatch with family";
  Array.iter (fun c -> if c < 0 then invalid_arg "Assignment: negative color") assignment;
  let g = Instance.graph inst in
  let m = Wl_digraph.Digraph.n_arcs g in
  (* Per-color owner table stamped per arc: one pass over the CSR index,
     no per-arc hashtable. *)
  let max_c = Array.fold_left max (-1) assignment in
  let owner = Array.make (max_c + 2) 0 in
  let stamp = Array.make (max_c + 2) (-1) in
  let off, ids = Instance.csr_index inst in
  let module Flat = Wl_util.Flat in
  let result = ref None in
  let a = ref 0 in
  while !result = None && !a < m do
    let lo = Flat.get off !a and hi = Flat.get off (!a + 1) in
    let i = ref lo in
    while !result = None && !i < hi do
      let p = Flat.unsafe_get ids !i in
      let c = assignment.(p) in
      if stamp.(c) = !a then result := Some (owner.(c), p, !a)
      else begin
        stamp.(c) <- !a;
        owner.(c) <- p
      end;
      incr i
    done;
    incr a
  done;
  !result

let is_valid inst assignment = first_conflict inst assignment = None

let n_wavelengths t =
  if Array.length t = 0 then 0 else 1 + Array.fold_left max (-1) t

let normalize t = Wl_conflict.Coloring.normalize t

let of_conflict_coloring c = Array.copy c
