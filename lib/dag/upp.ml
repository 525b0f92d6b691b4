open Wl_digraph
module Saturating = Wl_util.Saturating

type violation = {
  from_v : Digraph.vertex;
  to_v : Digraph.vertex;
  path1 : Dipath.t;
  path2 : Dipath.t;
}

let two = Saturating.of_int 2

let find_violating_pair d =
  let n = Dag.n_vertices d in
  let rec scan v =
    if v >= n then None
    else
      let counts = Dag.count_dipaths_from d v in
      let rec scan_dst w =
        if w >= n then scan (v + 1)
        else if Saturating.compare counts.(w) two >= 0 then Some (v, w)
        else scan_dst (w + 1)
      in
      scan_dst 0
  in
  scan 0

let is_upp d = find_violating_pair d = None

let find_violation d =
  match find_violating_pair d with
  | None -> None
  | Some (v, w) ->
    (match Dag.all_dipaths_between ~limit:2 d v w with
    | p1 :: p2 :: _ -> Some { from_v = v; to_v = w; path1 = p1; path2 = p2 }
    | _ -> invalid_arg "Upp.find_violation: count/enumeration mismatch")

let routable_pairs d =
  let g = Dag.graph d in
  let n = Dag.n_vertices d in
  let reach = Traversal.reachability_matrix g in
  let out = ref [] in
  for x = n - 1 downto 0 do
    for y = n - 1 downto 0 do
      if x <> y && Wl_util.Bitset.mem reach.(x) y then out := (x, y) :: !out
    done
  done;
  !out
