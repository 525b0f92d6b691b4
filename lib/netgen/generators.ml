open Wl_digraph
module Dag = Wl_dag.Dag
module Internal_cycle = Wl_dag.Internal_cycle
module Upp = Wl_dag.Upp
module Prng = Wl_util.Prng

let gnp_dag rng n p =
  let order = Prng.permutation rng n in
  let g = Digraph.create () in
  Digraph.add_vertices g n;
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if Prng.bernoulli rng p then ignore (Digraph.add_arc g order.(i) order.(j))
    done
  done;
  Dag.of_digraph_exn g

let layered rng ~layers ~width ~p =
  if layers < 1 || width < 1 then invalid_arg "Generators.layered";
  let g = Digraph.create () in
  let vertex = Array.init layers (fun _ -> Array.init width (fun _ -> Digraph.add_vertex g)) in
  for l = 0 to layers - 2 do
    for i = 0 to width - 1 do
      for j = 0 to width - 1 do
        if Prng.bernoulli rng p then ignore (Digraph.add_arc g vertex.(l).(i) vertex.(l + 1).(j))
      done
    done
  done;
  (* Guarantee connectivity of the layer structure. *)
  for l = 0 to layers - 2 do
    for i = 0 to width - 1 do
      if Digraph.out_degree g vertex.(l).(i) = 0 then
        ignore (Digraph.add_arc g vertex.(l).(i) vertex.(l + 1).(Prng.int rng width))
    done
  done;
  for l = 1 to layers - 1 do
    for i = 0 to width - 1 do
      if Digraph.in_degree g vertex.(l).(i) = 0 then
        ignore (Digraph.add_arc g vertex.(l - 1).(Prng.int rng width) vertex.(l).(i))
    done
  done;
  Dag.of_digraph_exn g

let rebuild_without g dropped =
  let keep = Digraph.fold_arcs (fun a u v acc -> if List.mem a dropped then acc else (u, v) :: acc) g [] in
  let labels = Array.init (Digraph.n_vertices g) (Digraph.label g) in
  Digraph.of_arcs ~labels (Digraph.n_vertices g) (List.rev keep)

let without_internal_cycle rng dag =
  let rec repair dag =
    match Internal_cycle.find dag with
    | None -> dag
    | Some walk ->
      let arcs = List.map fst walk in
      let victim = Prng.choose_list rng arcs in
      repair (Dag.of_digraph_exn (rebuild_without (Dag.graph dag) [ victim ]))
  in
  repair dag

let gnp_no_internal_cycle rng n p = without_internal_cycle rng (gnp_dag rng n p)

let make_upp rng dag =
  let rec repair dag =
    match Upp.find_violation dag with
    | None -> dag
    | Some v ->
      let path = if Prng.bool rng then v.Upp.path1 else v.Upp.path2 in
      let victim = Prng.choose_list rng (Dipath.arcs path) in
      repair (Dag.of_digraph_exn (rebuild_without (Dag.graph dag) [ victim ]))
  in
  repair dag

let gnp_upp rng n p = make_upp rng (gnp_dag rng n p)

let random_rooted_tree rng n =
  if n < 1 then invalid_arg "Generators.random_rooted_tree";
  let g = Digraph.create () in
  Digraph.add_vertices g n;
  for i = 1 to n - 1 do
    ignore (Digraph.add_arc g (Prng.int rng i) i)
  done;
  Dag.of_digraph_exn g

(* One internal-cycle gadget added into [g]: 2-4 peaks/valleys, segments
   subdivided by 0-2 inner vertices, pendant predecessors/successors
   making it internal.  Returns one pendant predecessor and one pendant
   successor (the hooks used to bridge gadgets together). *)
let add_cycle_gadget g rng =
  let k = Prng.int_in rng 2 4 in
  let b = Array.init k (fun _ -> Digraph.add_vertex g) in
  let c = Array.init k (fun _ -> Digraph.add_vertex g) in
  let segment u v =
    let inner = Prng.int rng 3 in
    let rec go prev j =
      if j = inner then ignore (Digraph.add_arc g prev v)
      else begin
        let w = Digraph.add_vertex g in
        ignore (Digraph.add_arc g prev w);
        go w (j + 1)
      end
    in
    go u 0
  in
  for i = 0 to k - 1 do
    segment b.(i) c.(i);
    segment b.((i + 1) mod k) c.(i)
  done;
  let preds =
    Array.map
      (fun bi ->
        let a = Digraph.add_vertex g in
        ignore (Digraph.add_arc g a bi);
        a)
      b
  in
  let succs =
    Array.map
      (fun ci ->
        let d = Digraph.add_vertex g in
        ignore (Digraph.add_arc g ci d);
        d)
      c
  in
  (preds.(0), succs.(0))

(* Random pendant growth by 8 vertices: each new vertex hangs off one
   arc, preserving the UPP property and adding no cycle. *)
let grow_pendants g rng =
  for _ = 1 to 8 do
    let n = Digraph.n_vertices g in
    let anchor = Prng.int rng n in
    let w = Digraph.add_vertex g in
    if Prng.bool rng then ignore (Digraph.add_arc g anchor w)
    else ignore (Digraph.add_arc g w anchor)
  done

let upp_one_internal_cycle rng () =
  let g = Digraph.create () in
  ignore (add_cycle_gadget g rng);
  grow_pendants g rng;
  Dag.of_digraph_exn g

let upp_internal_cycles rng ?(cycles = 2) () =
  if cycles < 1 then invalid_arg "Generators.upp_internal_cycles: cycles >= 1";
  let g = Digraph.create () in
  let hooks = List.init cycles (fun _ -> add_cycle_gadget g rng) in
  (* Bridge consecutive gadgets: the previous gadget's pendant successor
     feeds the next gadget's pendant predecessor.  A bridge is a cut arc, so
     it adds no cycle; uniqueness of dipaths across it follows from the
     gadgets' own UPP property. *)
  let rec bridge = function
    | (_, d_prev) :: ((a_next, _) :: _ as rest) ->
      ignore (Digraph.add_arc g d_prev a_next);
      bridge rest
    | _ -> ()
  in
  bridge hooks;
  grow_pendants g rng;
  Dag.of_digraph_exn g

let backbone rng ~pops ~levels =
  if pops < 1 || levels < 2 then invalid_arg "Generators.backbone";
  let g = Digraph.create () in
  let vertex =
    Array.init levels (fun l ->
        Array.init pops (fun i ->
            Digraph.add_vertex ~label:(Printf.sprintf "pop%d.%d" l i) g))
  in
  for l = 0 to levels - 2 do
    for i = 0 to pops - 1 do
      (* Dense consecutive links: each PoP reaches 2-3 next-level PoPs. *)
      let fanout = Prng.int_in rng 2 (min 3 pops) in
      let targets = Prng.sample_without_replacement rng fanout pops in
      List.iter
        (fun j ->
          if not (Digraph.mem_arc g vertex.(l).(i) vertex.(l + 1).(j)) then
            ignore (Digraph.add_arc g vertex.(l).(i) vertex.(l + 1).(j)))
        targets;
      (* Sparse express links skipping a level. *)
      if l + 2 < levels && Prng.bernoulli rng 0.25 then begin
        let j = Prng.int rng pops in
        if not (Digraph.mem_arc g vertex.(l).(i) vertex.(l + 2).(j)) then
          ignore (Digraph.add_arc g vertex.(l).(i) vertex.(l + 2).(j))
      end
    done
  done;
  Dag.of_digraph_exn g
