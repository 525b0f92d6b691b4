open Wl_digraph
module Dag = Wl_dag.Dag

type selection = { selected : bool array; size : int; load : int }

let load_profile_of inst chosen =
  let g = Instance.graph inst in
  let load = Array.make (max 1 (Digraph.n_arcs g)) 0 in
  Array.iteri
    (fun i keep ->
      if keep then
        Array.iter
          (fun a -> load.(a) <- load.(a) + 1)
          (Dipath.arc_array (Instance.path inst i)))
    chosen;
  load

let load_of_subfamily inst chosen =
  Array.fold_left max 0 (load_profile_of inst chosen)

let selection_of inst chosen =
  {
    selected = chosen;
    size = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 chosen;
    load = load_of_subfamily inst chosen;
  }

let greedy inst ~w =
  if w < 0 then invalid_arg "Grooming.greedy: w must be >= 0";
  let n = Instance.n_paths inst in
  let g = Instance.graph inst in
  let order = Array.init n Fun.id in
  Array.sort
    (fun i j ->
      compare
        (Dipath.n_arcs (Instance.path inst i), i)
        (Dipath.n_arcs (Instance.path inst j), j))
    order;
  let load = Array.make (max 1 (Digraph.n_arcs g)) 0 in
  let chosen = Array.make n false in
  Array.iter
    (fun i ->
      let arcs = Dipath.arc_array (Instance.path inst i) in
      if Array.for_all (fun a -> load.(a) < w) arcs then begin
        chosen.(i) <- true;
        Array.iter (fun a -> load.(a) <- load.(a) + 1) arcs
      end)
    order;
  selection_of inst chosen

exception Node_budget_exhausted

let node_limit = 2_000_000

let exact inst ~w =
  if w < 0 then invalid_arg "Grooming.exact: w must be >= 0";
  let n = Instance.n_paths inst in
  if Load.pi inst <= w then
    (* Everything fits. *)
    Some (selection_of inst (Array.make n true))
  else begin
    let g = Instance.graph inst in
    let arcs_of = Array.init n (fun i -> Dipath.arc_array (Instance.path inst i)) in
    let load = Array.make (max 1 (Digraph.n_arcs g)) 0 in
    let chosen = Array.make n false in
    let best = ref (greedy inst ~w) in
    let nodes = ref 0 in
    let rec go idx count =
      incr nodes;
      if !nodes > node_limit then raise Node_budget_exhausted;
      if count + (n - idx) <= !best.size then ()
      else if idx = n then begin
        if count > !best.size then best := selection_of inst (Array.copy chosen)
      end
      else begin
        (* Include idx if feasible. *)
        if Array.for_all (fun a -> load.(a) < w) arcs_of.(idx) then begin
          Array.iter (fun a -> load.(a) <- load.(a) + 1) arcs_of.(idx);
          chosen.(idx) <- true;
          go (idx + 1) (count + 1);
          chosen.(idx) <- false;
          Array.iter (fun a -> load.(a) <- load.(a) - 1) arcs_of.(idx)
        end;
        (* Exclude idx. *)
        go (idx + 1) count
      end
    in
    match go 0 0 with
    | () -> Some !best
    | exception Node_budget_exhausted -> None
  end

(* Is the digraph a single directed path covering all vertices? *)
let is_line dag =
  let g = Dag.graph dag in
  let n = Digraph.n_vertices g in
  n >= 2
  && Digraph.n_arcs g = n - 1
  && List.for_all
       (fun v -> Digraph.out_degree g v <= 1 && Digraph.in_degree g v <= 1)
       (Digraph.vertices g)
  && List.length (Dag.sources dag) = 1

let on_line inst ~w =
  if w < 0 then invalid_arg "Grooming.on_line: w must be >= 0";
  let dag = Instance.dag inst in
  if not (is_line dag) then None
  else begin
    let g = Instance.graph inst in
    (* Position of each vertex along the line. *)
    let pos = Array.make (Digraph.n_vertices g) 0 in
    let rec walk v i =
      pos.(v) <- i;
      match Digraph.succ g v with
      | [ next ] -> walk next (i + 1)
      | _ -> ()
    in
    (match Dag.sources dag with
    | [ s ] -> walk s 0
    | _ -> invalid_arg "Grooming.on_line: not a line");
    let n = Instance.n_paths inst in
    (* Intervals [lo, hi) in arc positions; arc from position p covers p. *)
    let interval i =
      let p = Instance.path inst i in
      (pos.(Dipath.src p), pos.(Dipath.dst p))
    in
    let order = Array.init n Fun.id in
    Array.sort
      (fun i j ->
        let _, ri = interval i and _, rj = interval j in
        compare (ri, i) (rj, j))
      order;
    let cover = Array.make (max 1 (Digraph.n_arcs g)) 0 in
    let chosen = Array.make n false in
    Array.iter
      (fun i ->
        let lo, hi = interval i in
        let fits = ref true in
        for p = lo to hi - 1 do
          if cover.(p) >= w then fits := false
        done;
        if !fits then begin
          chosen.(i) <- true;
          for p = lo to hi - 1 do
            cover.(p) <- cover.(p) + 1
          done
        end)
      order;
    Some (selection_of inst chosen)
  end

let sub_instance inst chosen =
  let count = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 chosen in
  if count = 0 then Instance.of_array (Instance.dag inst) [||]
  else begin
  let paths = Array.make count (Instance.path inst 0) in
  let k = ref 0 in
  Array.iteri
    (fun i keep ->
      if keep then begin
        paths.(!k) <- Instance.path inst i;
        incr k
      end)
    chosen;
  Instance.of_array (Instance.dag inst) paths
  end

let select inst ~w =
  match on_line inst ~w with
  | Some s -> s
  | None -> (
    if Instance.n_paths inst <= 22 then
      match exact inst ~w with Some s -> s | None -> greedy inst ~w
    else greedy inst ~w)

let satisfy inst ~w =
  if w < 0 then None
  else begin
    let dag = Instance.dag inst in
    let has_cycle = Wl_dag.Internal_cycle.has_internal_cycle dag in
    (* Without internal cycles, load <= w is exactly w-satisfiability
       (Theorem 1); with them the coloring can exceed the load, so retry
       with a stricter load target until the colors fit (the empty
       selection always does). *)
    let rec attempt target =
      if target < 0 then None
      else begin
        let selection = select inst ~w:target in
        let sub = sub_instance inst selection.selected in
        let assignment =
          if has_cycle then (Solver.solve sub).Solver.assignment
          else Assignment.normalize (Theorem1.color sub)
        in
        if Assignment.n_wavelengths (Assignment.normalize assignment) > w then
          attempt (target - 1)
        else Some (selection, assignment)
      end
    in
    attempt w
  end
