open Wl_digraph
open Wl_core
module Dag = Wl_dag.Dag

(* Figure 1: k pairwise-conflicting dipaths of load 2.  For every pair
   {i, j} a dedicated meeting arc m -> m' carried by exactly dipaths i and
   j; each dipath visits its meetings in one fixed global order, linked by
   private arcs, so all dipaths are simple and the graph acyclic. *)
let fig1 k =
  if k < 2 then invalid_arg "Figures.fig1: k must be >= 2";
  let g = Digraph.create () in
  let source = Array.init k (fun i -> Digraph.add_vertex ~label:(Printf.sprintf "s%d" (i + 1)) g) in
  let sink = Array.init k (fun i -> Digraph.add_vertex ~label:(Printf.sprintf "t%d" (i + 1)) g) in
  (* Pairs in lexicographic order; meeting vertices per pair. *)
  let pairs = ref [] in
  for i = 0 to k - 1 do
    for j = i + 1 to k - 1 do
      pairs := (i, j) :: !pairs
    done
  done;
  let pairs = List.rev !pairs in
  let meeting = Hashtbl.create 32 in
  List.iter
    (fun (i, j) ->
      let m = Digraph.add_vertex ~label:(Printf.sprintf "m%d.%d" (i + 1) (j + 1)) g in
      let m' = Digraph.add_vertex ~label:(Printf.sprintf "m%d.%d'" (i + 1) (j + 1)) g in
      ignore (Digraph.add_arc g m m');
      Hashtbl.add meeting (i, j) (m, m'))
    pairs;
  let paths =
    List.init k (fun i ->
        let my_meetings =
          List.filter (fun (a, b) -> a = i || b = i) pairs
          |> List.map (Hashtbl.find meeting)
        in
        let rec link prev acc = function
          | [] ->
            ignore (Digraph.add_arc g prev sink.(i));
            List.rev (sink.(i) :: acc)
          | (m, m') :: rest ->
            ignore (Digraph.add_arc g prev m);
            link m' (m' :: m :: acc) rest
        in
        let verts = link source.(i) [ source.(i) ] my_meetings in
        verts)
  in
  let dag = Dag.of_digraph_exn g in
  Instance.make dag (List.map (Dipath.make g) paths)

let fig3 () =
  let g =
    Digraph.of_arcs
      ~labels:[| "a1"; "b1"; "c1"; "d1"; "e1" |]
      5
      [ (0, 1); (1, 2); (2, 3); (3, 4); (1, 3) ]
  in
  let dag = Dag.of_digraph_exn g in
  let p l = Dipath.make g l in
  Instance.make dag
    [ p [ 0; 1; 2 ]; p [ 1; 2; 3 ]; p [ 2; 3; 4 ]; p [ 1; 3; 4 ]; p [ 0; 1; 3 ] ]

let fig5_graph k =
  if k < 2 then invalid_arg "Figures.fig5: k must be >= 2";
  let g = Digraph.create () in
  let name prefix i = Printf.sprintf "%s%d" prefix (i + 1) in
  let a = Array.init k (fun i -> Digraph.add_vertex ~label:(name "a" i) g) in
  let b = Array.init k (fun i -> Digraph.add_vertex ~label:(name "b" i) g) in
  let c = Array.init k (fun i -> Digraph.add_vertex ~label:(name "c" i) g) in
  let d = Array.init k (fun i -> Digraph.add_vertex ~label:(name "d" i) g) in
  for i = 0 to k - 1 do
    ignore (Digraph.add_arc g a.(i) b.(i));
    ignore (Digraph.add_arc g b.(i) c.(i));
    ignore (Digraph.add_arc g b.((i + 1) mod k) c.(i));
    ignore (Digraph.add_arc g c.(i) d.(i))
  done;
  Dag.of_digraph_exn g

let fig5 k =
  let dag = fig5_graph k in
  match Theorem2.build dag with
  | Some inst -> inst
  | None -> invalid_arg "Figures.fig5: construction has no internal cycle?"

let havet_graph () =
  let g = Digraph.create () in
  let v l = Digraph.add_vertex ~label:l g in
  let a1 = v "a1" and a1' = v "a1'" and a2 = v "a2" and a2' = v "a2'" in
  let b1 = v "b1" and b2 = v "b2" in
  let c1 = v "c1" and c2 = v "c2" in
  let d1 = v "d1" and d1' = v "d1'" and d2 = v "d2" and d2' = v "d2'" in
  List.iter
    (fun (u, w) -> ignore (Digraph.add_arc g u w))
    [
      (a1, b1); (a1', b1); (a2, b2); (a2', b2);
      (b1, c1); (b1, c2); (b2, c1); (b2, c2);
      (c1, d1); (c1, d1'); (c2, d2); (c2, d2');
    ];
  Dag.of_digraph_exn g

(* The eight dipaths of Figure 9, ordered so that consecutive ones (mod 8)
   conflict and antipodal ones conflict: the conflict graph is the Wagner
   graph C_8 + {i, i+4}.  Conflicts arise from three perfect matchings:
   shared a-arc (pairs (0,1) (2,3) (4,5) (6,7)), shared c->d arc (pairs
   (1,2) (3,4) (5,6) (7,0)), shared b->c arc (pairs (i, i+4)). *)
let havet h =
  if h < 1 then invalid_arg "Figures.havet: h must be >= 1";
  let dag = havet_graph () in
  let g = Dag.graph dag in
  let idx l =
    match Digraph.vertex_of_label g l with
    | Some v -> v
    | None -> invalid_arg "Figures.havet: missing label"
  in
  let p l = Dipath.make g (List.map idx l) in
  let base =
    [
      p [ "a1"; "b1"; "c1"; "d1'" ];
      p [ "a1"; "b1"; "c2"; "d2" ];
      p [ "a2"; "b2"; "c2"; "d2" ];
      p [ "a2"; "b2"; "c1"; "d1" ];
      p [ "a1'"; "b1"; "c1"; "d1" ];
      p [ "a1'"; "b1"; "c2"; "d2'" ];
      p [ "a2'"; "b2"; "c2"; "d2'" ];
      p [ "a2'"; "b2"; "c1"; "d1'" ];
    ]
  in
  Theorem2.replicate (Instance.make dag base) h

let havet_base_independent_sets () =
  Array.init 8 (fun j -> [ j; (j + 2) mod 8; (j + 5) mod 8 ])

let odd_cycle_independent_sets k =
  if k < 1 then invalid_arg "Figures.odd_cycle_independent_sets";
  let m = (2 * k) + 1 in
  Array.init m (fun j -> List.init k (fun l -> (j + (2 * l)) mod m))
