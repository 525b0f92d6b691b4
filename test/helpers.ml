(* Shared test utilities: deterministic generators bridging our PRNG with
   qcheck, plus small oracles used across suites. *)

open Wl_digraph
module Prng = Wl_util.Prng
module Dag = Wl_dag.Dag

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count ~name gen prop)

(* qcheck generates only a seed; all structure is derived through our own
   PRNG so shrinking stays meaningful and reproduction is a seed. *)
let seed_gen = QCheck2.Gen.int_range 0 1_000_000

(* Raw digraph variant (guaranteed acyclic) for the graph-level suites. *)
let gnp_dag seed n p = Dag.graph (Wl_netgen.Generators.gnp_dag (Prng.create seed) n p)

let random_instance ?(n = 16) ?(p = 0.2) ?(k = 10) seed =
  let rng = Prng.create seed in
  let dag = Wl_netgen.Generators.gnp_dag rng n p in
  Wl_netgen.Path_gen.random_instance rng dag k

let random_nic_instance ?(n = 16) ?(p = 0.2) ?(k = 10) seed =
  let rng = Prng.create seed in
  let dag = Wl_netgen.Generators.gnp_no_internal_cycle rng n p in
  Wl_netgen.Path_gen.random_instance rng dag k

let random_upp_instance ?(n = 16) ?(p = 0.2) ?(k = 10) seed =
  let rng = Prng.create seed in
  let dag = Wl_netgen.Generators.gnp_upp rng n p in
  Wl_netgen.Path_gen.random_instance rng dag k

let dedup_paths paths =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun p ->
      let key = Dipath.vertices p in
      if Hashtbl.mem seen key then false
      else begin
        Hashtbl.add seen key ();
        true
      end)
    paths

let random_upp_one_cycle_instance ?(k = 12) ?(distinct = true) seed =
  let rng = Prng.create seed in
  let dag = Wl_netgen.Generators.upp_one_internal_cycle rng () in
  let paths = Wl_netgen.Path_gen.random_family rng dag k in
  let paths = if distinct then dedup_paths paths else paths in
  Wl_core.Instance.make dag paths

(* Brute-force chromatic number by exhaustive assignment, for tiny graphs. *)
let brute_chromatic g =
  let n = Wl_conflict.Ugraph.n_vertices g in
  if n = 0 then 0
  else begin
    let coloring = Array.make n (-1) in
    let rec feasible k v =
      if v = n then true
      else
        let ok = ref false in
        let c = ref 0 in
        while (not !ok) && !c < k do
          let clash =
            List.exists
              (fun w -> coloring.(w) = !c)
              (Wl_conflict.Ugraph.neighbors g v)
          in
          if not clash then begin
            coloring.(v) <- !c;
            if feasible k (v + 1) then ok := true;
            coloring.(v) <- -1
          end;
          incr c
        done;
        !ok
    in
    let rec search k = if feasible k 0 then k else search (k + 1) in
    search 1
  end

let pairwise rel vs =
  let rec go = function [] -> true | v :: rest -> List.for_all (rel v) rest && go rest in
  go vs

let is_clique g vs = pairwise (Wl_conflict.Ugraph.mem_edge g) vs
let is_independent g vs = pairwise (fun u v -> not (Wl_conflict.Ugraph.mem_edge g u v)) vs

let ugraph_of_edges n es =
  let g = Wl_conflict.Ugraph.create n in
  List.iter (fun (u, v) -> Wl_conflict.Ugraph.add_edge g u v) es;
  g

(* Each edge once, as [(min, max)] pairs, sorted. *)
let ugraph_edges g =
  let acc = ref [] in
  Wl_conflict.Ugraph.iter_edges (fun u v -> acc := (u, v) :: !acc) g;
  List.rev !acc

(* Same vertex count and same arc set, labels and arc ids aside. *)
let same_graph g1 g2 =
  Digraph.n_vertices g1 = Digraph.n_vertices g2
  && List.sort compare (Digraph.arcs g1) = List.sort compare (Digraph.arcs g2)

(* Family indices through an arc, ascending. *)
let paths_through inst a =
  let acc = ref [] in
  Wl_core.Instance.paths_through_iter inst a (fun i -> acc := i :: !acc);
  List.rev !acc

(* One hop-shortest dipath per routable ordered pair: on a UPP-DAG, the
   unique one. *)
let all_to_all_instance dag =
  match
    Wl_core.Routing.instance_of dag Wl_core.Routing.route_shortest
      (Wl_core.Routing.all_to_all dag)
  with
  | Ok inst -> inst
  | Error e -> invalid_arg (Wl_core.Error.to_string e)

(* A counter's value, or a histogram's snapshot, as the metrics registry
   reports it: an instrument never touched reads as 0 / empty. *)
let counter_value name =
  match List.assoc_opt name (Wl_obs.Metrics.snapshot ()) with
  | Some (Wl_obs.Metrics.Counter v) -> v
  | _ -> 0

let histogram_snapshot name =
  match List.assoc_opt name (Wl_obs.Metrics.snapshot ()) with
  | Some (Wl_obs.Metrics.Histogram s) -> s
  | _ -> { Wl_obs.Hdr.count = 0; sum = 0; min = 0; max = 0; p50 = 0; p90 = 0; p99 = 0; p999 = 0 }

(* Brute-force maximum clique by subset enumeration, for tiny graphs. *)
let brute_clique_number g =
  let n = Wl_conflict.Ugraph.n_vertices g in
  let best = ref 0 in
  for mask = 0 to (1 lsl n) - 1 do
    let vs = List.filter (fun v -> mask land (1 lsl v) <> 0) (List.init n Fun.id) in
    if List.length vs > !best && is_clique g vs then
      best := List.length vs
  done;
  !best

let random_ugraph seed n p =
  let rng = Prng.create seed in
  let g = Wl_conflict.Ugraph.create n in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if Prng.bernoulli rng p then Wl_conflict.Ugraph.add_edge g u v
    done
  done;
  g
