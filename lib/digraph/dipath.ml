type t = {
  verts : int array; (* >= 2 vertices, all distinct *)
  arc_ids : int array; (* length = |verts| - 1 *)
  arcs_sorted : int array; (* arc_ids sorted, for fast intersection *)
}

(* Exception-free validation; the raising entry points wrap it. *)
let validate g verts =
  let k = Array.length verts in
  if k < 2 then Error "Dipath: needs at least two vertices"
  else begin
    let sorted = Array.copy verts in
    Array.sort Int.compare sorted;
    let rec dup i = i < k && (sorted.(i) = sorted.(i - 1) || dup (i + 1)) in
    if dup 1 then Error "Dipath: repeated vertex"
    else if
      Array.exists
        (fun v -> v < 0 || v >= Digraph.n_vertices g)
        verts
    then Error "Dipath: no such vertex"
    else begin
      let missing = ref None in
      let arc_ids =
        Array.init (k - 1) (fun i ->
            match Digraph.find_arc g verts.(i) verts.(i + 1) with
            | Some a -> a
            | None ->
              if !missing = None then
                missing :=
                  Some
                    (Printf.sprintf "Dipath: missing arc %s -> %s"
                       (Digraph.label g verts.(i))
                       (Digraph.label g verts.(i + 1)));
              -1)
      in
      match !missing with Some msg -> Error msg | None -> Ok arc_ids
    end
  end

let of_vertex_array_result g verts =
  match validate g verts with
  | Error _ as e -> e
  | Ok arc_ids ->
    let arcs_sorted = Array.copy arc_ids in
    Array.sort Int.compare arcs_sorted;
    Ok { verts = Array.copy verts; arc_ids; arcs_sorted }

let of_vertex_array g verts =
  match of_vertex_array_result g verts with
  | Ok p -> p
  | Error msg -> invalid_arg msg

let of_vertices g vertex_list = of_vertex_array_result g (Array.of_list vertex_list)

let make g vertex_list = of_vertex_array g (Array.of_list vertex_list)

let of_arcs g arc_list =
  match arc_list with
  | [] -> invalid_arg "Dipath.of_arcs: empty"
  | first :: _ ->
    let verts =
      Digraph.arc_src g first
      :: List.map (fun a -> Digraph.arc_dst g a) arc_list
    in
    let p = make g verts in
    if List.compare compare (Array.to_list p.arc_ids) arc_list <> 0 then
      invalid_arg "Dipath.of_arcs: arcs do not chain";
    p

let vertices p = Array.to_list p.verts
let arcs p = Array.to_list p.arc_ids
let arc_array p = Array.copy p.arc_ids
let unsafe_arc_array p = p.arc_ids
let src p = p.verts.(0)
let dst p = p.verts.(Array.length p.verts - 1)
let n_arcs p = Array.length p.arc_ids

let mem_arc p a =
  (* Binary search in the sorted arc ids. *)
  let lo = ref 0 and hi = ref (Array.length p.arcs_sorted - 1) in
  let found = ref false in
  while (not !found) && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let x = p.arcs_sorted.(mid) in
    if x = a then found := true
    else if x < a then lo := mid + 1
    else hi := mid - 1
  done;
  !found

let vertex_index p v =
  let n = Array.length p.verts in
  let rec go i = if i >= n then None else if p.verts.(i) = v then Some i else go (i + 1) in
  go 0

let shares_arc p q =
  (* Merge scan over sorted arc ids. *)
  let a = p.arcs_sorted and b = q.arcs_sorted in
  let la = Array.length a and lb = Array.length b in
  let rec go i j =
    if i >= la || j >= lb then false
    else if a.(i) = b.(j) then true
    else if a.(i) < b.(j) then go (i + 1) j
    else go i (j + 1)
  in
  go 0 0

(* Common arcs, in the order they appear on [p]. *)
let shared_arcs p q =
  List.filter (fun a -> mem_arc q a) (arcs p)

let intersection_interval g p q =
  match shared_arcs p q with
  | [] -> None
  | common ->
    (* Check contiguity on p: the shared arcs must be consecutive in p's arc
       sequence; same on q; and in the same order. *)
    let on_p = Array.to_list p.arc_ids in
    let rec positions target lst i acc =
      match lst with
      | [] -> List.rev acc
      | a :: rest ->
        positions target rest (i + 1) (if List.mem a target then i :: acc else acc)
    in
    let pos_p = positions common on_p 0 [] in
    let contiguous l =
      let rec go = function
        | a :: (b :: _ as rest) -> b = a + 1 && go rest
        | _ -> true
      in
      go l
    in
    let on_q = Array.to_list q.arc_ids in
    let pos_q = positions common on_q 0 [] in
    if not (contiguous pos_p && contiguous pos_q) then
      invalid_arg "Dipath.intersection_interval: not a single interval";
    let arcs_in_p_order = List.filter (fun a -> List.mem a common) on_p in
    let arcs_in_q_order = List.filter (fun a -> List.mem a common) on_q in
    if arcs_in_p_order <> arcs_in_q_order then
      invalid_arg "Dipath.intersection_interval: interval orders differ";
    let first = List.hd arcs_in_p_order in
    let last = List.nth arcs_in_p_order (List.length arcs_in_p_order - 1) in
    Some (Digraph.arc_src g first, Digraph.arc_dst g last)

let equal p q = p.verts = q.verts

let pp g ppf p =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " -> ")
    (fun ppf v -> Format.pp_print_string ppf (Digraph.label g v))
    ppf (vertices p)

let to_string g p = Format.asprintf "%a" (pp g) p
