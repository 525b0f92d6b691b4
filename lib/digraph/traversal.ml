module Bitset = Wl_util.Bitset
module Union_find = Wl_util.Union_find

(* Each BFS below keeps its queue in an int array: a vertex enters at
   most once, so n slots suffice and [head]/[tail] never wrap. *)

let bfs_dist g src =
  let n = Digraph.n_vertices g in
  let dist = Array.make n (-1) and queue = Array.make n 0 in
  let tail = ref 0 and d = ref 0 in
  let enter w =
    if dist.(w) < 0 then begin
      dist.(w) <- !d;
      queue.(!tail) <- w;
      incr tail
    end
  in
  enter src;
  let head = ref 0 in
  while !head < !tail do
    let v = queue.(!head) in
    incr head;
    d := dist.(v) + 1;
    Digraph.iter_succ enter g v
  done;
  dist

let topological_array g =
  let n = Digraph.n_vertices g in
  let indeg = Array.init n (Digraph.in_degree g) and queue = Array.make n 0 in
  let tail = ref 0 in
  let release w =
    indeg.(w) <- indeg.(w) - 1;
    if indeg.(w) = 0 then begin
      queue.(!tail) <- w;
      incr tail
    end
  in
  for v = 0 to n - 1 do
    if indeg.(v) = 0 then begin
      queue.(!tail) <- v;
      incr tail
    end
  done;
  let head = ref 0 in
  while !head < !tail do
    incr head;
    Digraph.iter_succ release g queue.(!head - 1)
  done;
  if !tail = n then Some queue else None

let topological_order g = Option.map Array.to_list (topological_array g)

let find_directed_cycle g =
  let n = Digraph.n_vertices g in
  (* 0 = white, 1 = on stack, 2 = done *)
  let state = Array.make n 0 in
  let parent = Array.make n (-1) in
  let cycle = ref None in
  let rec visit v =
    state.(v) <- 1;
    Digraph.iter_succ
      (fun w ->
        if !cycle = None then
          if state.(w) = 0 then begin
            parent.(w) <- v;
            visit w
          end
          else if state.(w) = 1 then begin
            (* Back edge v -> w closes a cycle w .. v. *)
            let rec build u acc = if u = w then u :: acc else build parent.(u) (u :: acc) in
            cycle := Some (build v [])
          end)
      g v;
    state.(v) <- 2
  in
  let v = ref 0 in
  while !cycle = None && !v < n do
    if state.(!v) = 0 then visit !v;
    incr v
  done;
  !cycle

let reachable_from g src =
  let seen = Array.make (Digraph.n_vertices g) false in
  let rec visit v =
    if not seen.(v) then begin
      seen.(v) <- true;
      Digraph.iter_succ visit g v
    end
  in
  visit src;
  seen

let reaching_to g dst =
  let seen = Array.make (Digraph.n_vertices g) false in
  let rec visit v =
    if not seen.(v) then begin
      seen.(v) <- true;
      Digraph.iter_pred visit g v
    end
  in
  visit dst;
  seen

let reachability_matrix g =
  let n = Digraph.n_vertices g in
  match topological_array g with
  | Some order ->
    let reach = Array.init n (fun _ -> Bitset.create n) in
    for i = n - 1 downto 0 do
      let v = order.(i) in
      Bitset.add reach.(v) v;
      Digraph.iter_succ (fun w -> Bitset.union_into reach.(v) reach.(w)) g v
    done;
    reach
  | None ->
    Array.init n (fun v ->
        let seen = reachable_from g v in
        let b = Bitset.create n in
        Array.iteri (fun i r -> if r then Bitset.add b i) seen;
        b)

let undirected_components g =
  let n = Digraph.n_vertices g in
  let uf = Union_find.create n in
  Digraph.iter_arcs (fun _ u v -> ignore (Union_find.union uf u v)) g;
  let comp = Array.make n (-1) in
  let next = ref 0 in
  let repr_comp = Hashtbl.create 16 in
  for v = 0 to n - 1 do
    let r = Union_find.find uf v in
    let c =
      match Hashtbl.find_opt repr_comp r with
      | Some c -> c
      | None ->
        let c = !next in
        incr next;
        Hashtbl.add repr_comp r c;
        c
    in
    comp.(v) <- c
  done;
  (comp, !next)

let undirected_cycle ?(keep_arc = fun _ -> true) g =
  let n = Digraph.n_vertices g in
  let uf = Union_find.create n in
  (* Forest adjacency built from accepted (cycle-free) arcs:
     per vertex, list of (neighbor, arc id, forward?). *)
  let forest = Array.make n [] in
  let find_tree_path u v =
    (* BFS in the partial forest from u to v. *)
    let parent = Array.make n None in
    let seen = Array.make n false in
    let queue = Queue.create () in
    seen.(u) <- true;
    Queue.add u queue;
    while not (Queue.is_empty queue) do
      let x = Queue.pop queue in
      List.iter
        (fun (y, a, fwd) ->
          if not seen.(y) then begin
            seen.(y) <- true;
            parent.(y) <- Some (x, a, fwd);
            Queue.add y queue
          end)
        forest.(x)
    done;
    let rec build y acc =
      if y = u then acc
      else
        match parent.(y) with
        | None -> invalid_arg "undirected_cycle: internal error"
        | Some (x, a, fwd) -> build x ((a, fwd) :: acc)
    in
    build v []
  in
  let result = ref None in
  let arcs = Digraph.arcs g in
  let rec scan a = function
    | [] -> ()
    | (u, v) :: rest ->
      if !result <> None then ()
      else if not (keep_arc a) then scan (a + 1) rest
      else if Union_find.union uf u v then begin
        (* Tree edge: record both directions in the forest. *)
        forest.(u) <- (v, a, true) :: forest.(u);
        forest.(v) <- (u, a, false) :: forest.(v);
        scan (a + 1) rest
      end
      else begin
        (* Arc u->v closes a cycle: arc forward, then tree path v..u. *)
        let back = find_tree_path v u in
        result := Some ((a, true) :: back)
      end
  in
  scan 0 arcs;
  !result
