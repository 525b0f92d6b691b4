module Bitset = Wl_util.Bitset

let find_k23 g =
  let n = Ugraph.n_vertices g in
  (* An independent triple within a candidate set, if any. *)
  let independent_triple cands =
    let arr = Array.of_list cands in
    let m = Array.length arr in
    let result = ref None in
    (try
       for i = 0 to m - 1 do
         for j = i + 1 to m - 1 do
           if not (Ugraph.mem_edge g arr.(i) arr.(j)) then
             for k = j + 1 to m - 1 do
               if
                 (not (Ugraph.mem_edge g arr.(i) arr.(k)))
                 && not (Ugraph.mem_edge g arr.(j) arr.(k))
               then begin
                 result := Some [ arr.(i); arr.(j); arr.(k) ];
                 raise Exit
               end
             done
         done
       done
     with Exit -> ());
    !result
  in
  let rec pairs u v =
    if u >= n then None
    else if v >= n then pairs (u + 1) (u + 2)
    else if Ugraph.mem_edge g u v then pairs u (v + 1)
    else begin
      let common = Bitset.inter (Ugraph.neighbor_set g u) (Ugraph.neighbor_set g v) in
      match independent_triple (Bitset.elements common) with
      | Some triple -> Some ([ u; v ], triple)
      | None -> pairs u (v + 1)
    end
  in
  pairs 0 1

let has_k23 g = find_k23 g <> None

let find_k5_minus_two_independent_edges g =
  let n = Ugraph.n_vertices g in
  let qualifies vs =
    (* Exactly two non-adjacent pairs, and they must be disjoint. *)
    let non_adj = ref [] in
    let rec scan = function
      | [] -> true
      | v :: rest ->
        List.for_all
          (fun w ->
            if Ugraph.mem_edge g v w then true
            else begin
              non_adj := (v, w) :: !non_adj;
              List.length !non_adj <= 2
            end)
          rest
        && scan rest
    in
    scan vs
    &&
    match !non_adj with
    | [ (a, b); (c, d) ] -> a <> c && a <> d && b <> c && b <> d
    | _ -> false
  in
  let result = ref None in
  let rec choose start acc k =
    if !result <> None then ()
    else if k = 0 then begin
      let vs = List.rev acc in
      if qualifies vs then result := Some vs
    end
    else
      for v = start to n - k do
        if !result = None then choose (v + 1) (v :: acc) (k - 1)
      done
  in
  choose 0 [] 5;
  !result

let is_cycle_graph g =
  let n = Ugraph.n_vertices g in
  n >= 3
  && (let rec all_deg2 v = v >= n || (Ugraph.degree g v = 2 && all_deg2 (v + 1)) in
      all_deg2 0)
  && Ugraph.n_edges g = n
  &&
  (* Connectivity walk. *)
  let seen = Array.make n false in
  let rec visit v =
    if not seen.(v) then begin
      seen.(v) <- true;
      List.iter visit (Ugraph.neighbors g v)
    end
  in
  visit 0;
  Array.for_all Fun.id seen
