open Wl_digraph
module Saturating = Wl_util.Saturating

type t = {
  g : Digraph.t;
  topo : Digraph.vertex array;
  pos : int array;
  mutable arc_order : int array option;
      (* cache for [arcs_by_tail_topo]: a pure function of the dag, and
         every solver run starts by asking for it *)
}

let of_digraph g =
  match Traversal.topological_array g with
  | Some topo ->
    let pos = Array.make (Digraph.n_vertices g) 0 in
    Array.iteri (fun i v -> pos.(v) <- i) topo;
    Ok { g; topo; pos; arc_order = None }
  | None ->
    let cycle =
      match Traversal.find_directed_cycle g with
      | Some c -> String.concat " -> " (List.map (Digraph.label g) c)
      | None -> "?"
    in
    Error (Printf.sprintf "not a DAG: directed cycle %s" cycle)

let of_digraph_exn g =
  match of_digraph g with Ok d -> d | Error msg -> invalid_arg msg

let graph d = d.g
let n_vertices d = Digraph.n_vertices d.g
let n_arcs d = Digraph.n_arcs d.g

let topo_position d v = d.pos.(v)

let sources d =
  Array.to_list d.topo |> List.filter (fun v -> Digraph.in_degree d.g v = 0)

let sinks d =
  Array.to_list d.topo |> List.filter (fun v -> Digraph.out_degree d.g v = 0)

let longest_path_length d =
  let n = n_vertices d in
  let dist = Array.make n 0 in
  (* Process in reverse topological order: dist v = 1 + max over succ. *)
  let longer w best = if dist.(w) + 1 > best then dist.(w) + 1 else best in
  for i = n - 1 downto 0 do
    let v = d.topo.(i) in
    dist.(v) <- Digraph.fold_succ longer d.g v dist.(v)
  done;
  Array.fold_left max 0 dist

let count_dipaths_from d v =
  let n = n_vertices d in
  let count = Array.make n Saturating.zero in
  count.(v) <- Saturating.one;
  let from = ref Saturating.zero in
  let push w = count.(w) <- Saturating.add count.(w) !from in
  for i = d.pos.(v) to n - 1 do
    let u = d.topo.(i) in
    if not (Saturating.equal count.(u) Saturating.zero) then begin
      from := count.(u);
      Digraph.iter_succ push d.g u
    end
  done;
  count

let all_dipaths_between ?(limit = 64) d src dst =
  if src = dst then []
  else begin
    let reaches_dst = Traversal.reaching_to d.g dst in
    let out = ref [] in
    let found = ref 0 in
    let rec go prefix v =
      if !found < limit then
        if v = dst then begin
          incr found;
          out := Dipath.make d.g (List.rev (v :: prefix)) :: !out
        end
        else
          let prefix = v :: prefix in
          Digraph.iter_succ (fun w -> if reaches_dst.(w) then go prefix w) d.g v
    in
    go [] src;
    List.rev !out
  end

let arcs_by_tail_topo d =
  let order =
    match d.arc_order with
    | Some order -> order
    | None ->
      (* Counting sort on tail positions (stable, so arc ids stay ascending
         within a position).  The polymorphic tuple sort this replaces
         dominated entire Theorem 1 solve runs at n >= 1000. *)
      let m = n_arcs d and n = n_vertices d in
      let cnt = Array.make (n + 1) 0 in
      for a = 0 to m - 1 do
        let p = d.pos.(Digraph.arc_src d.g a) in
        cnt.(p + 1) <- cnt.(p + 1) + 1
      done;
      for p = 1 to n do
        cnt.(p) <- cnt.(p) + cnt.(p - 1)
      done;
      let out = Array.make m 0 in
      for a = 0 to m - 1 do
        let p = d.pos.(Digraph.arc_src d.g a) in
        out.(cnt.(p)) <- a;
        cnt.(p) <- cnt.(p) + 1
      done;
      d.arc_order <- Some out;
      out
  in
  (* Callers own their copy; the cache must stay pristine. *)
  Array.copy order
