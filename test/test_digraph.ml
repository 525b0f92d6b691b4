(* Tests for the digraph structure and its derived graphs. *)

open Helpers
open Wl_digraph
module Prng = Wl_util.Prng

let diamond () =
  (* 0 -> 1 -> 3, 0 -> 2 -> 3 *)
  Digraph.of_arcs 4 [ (0, 1); (0, 2); (1, 3); (2, 3) ]

let test_basic () =
  let g = diamond () in
  check_int "vertices" 4 (Digraph.n_vertices g);
  check_int "arcs" 4 (Digraph.n_arcs g);
  check_int "out degree" 2 (Digraph.out_degree g 0);
  check_int "in degree" 2 (Digraph.in_degree g 3);
  check "succ" true (Digraph.succ g 0 = [ 1; 2 ]);
  check "pred" true (Digraph.pred g 3 = [ 1; 2 ]);
  check "mem_arc" true (Digraph.mem_arc g 0 1);
  check "not mem_arc" false (Digraph.mem_arc g 1 0);
  check "find_arc id" true (Digraph.find_arc g 0 2 = Some 1);
  check "endpoints" true (Digraph.arc_endpoints g 2 = (1, 3));
  check "arcs list" true (Digraph.arcs g = [ (0, 1); (0, 2); (1, 3); (2, 3) ])

let test_rejections () =
  let g = diamond () in
  Alcotest.check_raises "self loop" (Invalid_argument "Digraph.add_arc: self-loop")
    (fun () -> ignore (Digraph.add_arc g 1 1));
  Alcotest.check_raises "duplicate" (Invalid_argument "Digraph.add_arc: duplicate arc")
    (fun () -> ignore (Digraph.add_arc g 0 1));
  Alcotest.check_raises "missing vertex" (Invalid_argument "Digraph: no such vertex")
    (fun () -> ignore (Digraph.add_arc g 0 9))

let test_labels () =
  let g = Digraph.create () in
  let a = Digraph.add_vertex ~label:"start" g in
  let b = Digraph.add_vertex g in
  check "explicit label" true (Digraph.label g a = "start");
  check "default label" true (Digraph.label g b = "v1");
  Digraph.set_label g b "end";
  check "set label" true (Digraph.label g b = "end");
  check "lookup" true (Digraph.vertex_of_label g "end" = Some b);
  check "lookup missing" true (Digraph.vertex_of_label g "nope" = None)

let test_reverse () =
  let g = diamond () in
  let r = Digraph.reverse g in
  check "reversed arcs" true
    (List.sort compare (Digraph.arcs r)
    = List.sort compare [ (1, 0); (2, 0); (3, 1); (3, 2) ]);
  check "double reverse" true (same_graph g (Digraph.reverse r))

let test_copy () =
  let g = diamond () in
  let c = Digraph.copy g in
  check "copy equal" true (same_graph g c);
  ignore (Digraph.add_arc c 3 0);
  check "copy independent" false (same_graph g c)

let random_roundtrip =
  qtest "of_arcs/arcs round trip" seed_gen (fun seed ->
      let g = gnp_dag seed 12 0.3 in
      let g' = Digraph.of_arcs (Digraph.n_vertices g) (Digraph.arcs g) in
      same_graph g g')

let degrees_sum =
  qtest "degree sums equal arc count" seed_gen (fun seed ->
      let g = gnp_dag seed 15 0.25 in
      let sum f = List.fold_left (fun acc v -> acc + f g v) 0 (Digraph.vertices g) in
      sum Digraph.out_degree = Digraph.n_arcs g
      && sum Digraph.in_degree = Digraph.n_arcs g)

let out_arcs_consistent =
  qtest "out_arcs/in_arcs agree with endpoints" seed_gen (fun seed ->
      let g = gnp_dag seed 12 0.3 in
      let ok = ref true in
      Digraph.iter_vertices
        (fun v ->
          Digraph.iter_out_arcs (fun a -> if Digraph.arc_src g a <> v then ok := false) g v;
          Digraph.iter_pred
            (fun u ->
              match Digraph.find_arc g u v with
              | Some a when Digraph.arc_src g a = u && Digraph.arc_dst g a = v -> ()
              | _ -> ok := false)
            g v)
        g;
      !ok)

(* --- the forward star against a naive list model ------------------------

   Random add_vertex / add_vertices / add_arc sequences, with self-loops,
   duplicates and out-of-range ends, run on a Digraph and on a model
   that keeps its arcs as a list in id order.  Every id and every
   Invalid_argument message must agree, and so must everything the graph
   says about itself: degrees, find_arc over every pair (out-of-range
   ends included), the arc list, labels, and each vertex's neighbours in
   order through every walker and through succ/pred. *)

type model = { mutable n : int; mutable m_arcs : (int * int) list; mutable m_labels : (int * string) list }

type op = Vertex of string option | Vertices of int | Arc of int * int

let random_ops rng k =
  List.init k (fun _ ->
      match Prng.int rng 10 with
      | 0 | 1 ->
        Vertex (if Prng.bool rng then Some (Printf.sprintf "l%d" (Prng.int rng 4)) else None)
      | 2 -> Vertices (Prng.int_in rng (-1) 3)
      | _ -> Arc (Prng.int_in rng (-1) 9, Prng.int_in rng (-1) 9))

let outcome f = match f () with x -> Ok x | exception Invalid_argument msg -> Error msg

let model_apply m = function
  | Vertex label ->
    let v = m.n in
    m.n <- v + 1;
    Option.iter (fun l -> m.m_labels <- (v, l) :: m.m_labels) label;
    Ok v
  | Vertices k ->
    m.n <- m.n + max 0 k;
    Ok (-1)
  | Arc (u, v) ->
    if u < 0 || u >= m.n || v < 0 || v >= m.n then Error "Digraph: no such vertex"
    else if u = v then Error "Digraph.add_arc: self-loop"
    else if List.mem (u, v) m.m_arcs then Error "Digraph.add_arc: duplicate arc"
    else begin
      m.m_arcs <- m.m_arcs @ [ (u, v) ];
      Ok (List.length m.m_arcs - 1)
    end

let graph_apply g = function
  | Vertex label -> outcome (fun () -> Digraph.add_vertex ?label g)
  | Vertices k -> outcome (fun () -> Digraph.add_vertices g k; -1)
  | Arc (u, v) -> outcome (fun () -> Digraph.add_arc g u v)

(* What a graph says about itself, as plain lists. *)
let observe g =
  let n = Digraph.n_vertices g in
  let collect walk v =
    let acc = ref [] in
    walk (fun x -> acc := x :: !acc) g v;
    List.rev !acc
  in
  let per_vertex v =
    ( (Digraph.out_degree g v, Digraph.in_degree g v, Digraph.label g v),
      [
        collect Digraph.iter_succ v;
        Digraph.succ g v;
        List.rev (Digraph.fold_succ List.cons g v []);
        collect Digraph.iter_pred v;
        Digraph.pred g v;
        collect Digraph.iter_out_arcs v;
      ] )
  in
  let pairs =
    List.concat_map
      (fun u -> List.init (n + 2) (fun v -> outcome (fun () -> Digraph.find_arc g u (v - 1))))
      (List.init (n + 2) (fun u -> u - 1))
  in
  let mems =
    List.init (n * n) (fun i -> Digraph.mem_arc g (i / n) (i mod n))
  in
  (n, Digraph.n_arcs g, Digraph.arcs g, List.init n per_vertex, pairs, mems)

(* The same, computed from the model. *)
let expect m =
  let n = m.n and arcs = List.mapi (fun a (u, v) -> (a, u, v)) m.m_arcs in
  let pick f = List.filter_map f arcs in
  let label v =
    match List.assoc_opt v m.m_labels with Some l -> l | None -> Printf.sprintf "v%d" v
  in
  let per_vertex v =
    let succ = pick (fun (_, u, w) -> if u = v then Some w else None) in
    let pred = pick (fun (_, u, w) -> if w = v then Some u else None) in
    ( (List.length succ, List.length pred, label v),
      [
        succ;
        succ;
        succ;
        pred;
        pred;
        pick (fun (a, u, _) -> if u = v then Some a else None);
      ] )
  in
  let find u v =
    if u < 0 || u >= n || v < 0 || v >= n then Error "Digraph: no such vertex"
    else Ok (List.find_map (fun (a, x, y) -> if x = u && y = v then Some a else None) arcs)
  in
  let pairs =
    List.concat_map
      (fun u -> List.init (n + 2) (fun v -> find u (v - 1)))
      (List.init (n + 2) (fun u -> u - 1))
  in
  let mems = List.init (n * n) (fun i -> List.mem (i / n, i mod n) m.m_arcs) in
  (n, List.length m.m_arcs, m.m_arcs, List.init n per_vertex, pairs, mems)

let run_ops g m ops =
  List.for_all (fun op -> graph_apply g op = model_apply m op) ops

let model_agrees =
  qtest ~count:300 "forward star agrees with a list model" seed_gen (fun seed ->
      let rng = Prng.create seed in
      let g = Digraph.create () in
      let m = { n = 0; m_arcs = []; m_labels = [] } in
      let same_run = run_ops g m (random_ops rng (Prng.int_in rng 0 80)) in
      let same_graph = observe g = expect m in
      (* A copy and its original diverge under later ops on either side. *)
      let c = Digraph.copy g in
      let mc = { m with n = m.n } in
      let more_g = run_ops g m (random_ops rng 20) in
      let more_c = run_ops c mc (random_ops rng 20) in
      let independent = observe g = expect m && observe c = expect mc in
      (* The reverse graph keeps labels and arc order. *)
      let r = Digraph.reverse g in
      let mr = { m with m_arcs = List.map (fun (u, v) -> (v, u)) m.m_arcs } in
      let reversed = observe r = expect mr in
      same_run && same_graph && more_g && more_c && independent && reversed)

let suite =
  [
    ( "digraph",
      [
        Alcotest.test_case "basics" `Quick test_basic;
        Alcotest.test_case "rejections" `Quick test_rejections;
        Alcotest.test_case "labels" `Quick test_labels;
        Alcotest.test_case "reverse" `Quick test_reverse;
        Alcotest.test_case "copy" `Quick test_copy;
        random_roundtrip;
        degrees_sum;
        out_arcs_consistent;
        model_agrees;
      ] );
  ]
