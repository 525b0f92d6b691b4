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

(* Brute-force maximum clique by subset enumeration, for tiny graphs. *)
let brute_clique_number g =
  let n = Wl_conflict.Ugraph.n_vertices g in
  let best = ref 0 in
  for mask = 0 to (1 lsl n) - 1 do
    let vs = List.filter (fun v -> mask land (1 lsl v) <> 0) (List.init n Fun.id) in
    if List.length vs > !best && Wl_conflict.Ugraph.is_clique g vs then
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
