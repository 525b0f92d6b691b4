(* Contract tests: every documented precondition violation raises, and with
   the documented message where one is promised. *)

open Helpers
open Wl_core
open Wl_digraph
module Dag = Wl_dag.Dag
module Prng = Wl_util.Prng

let raises_invalid f =
  match f () with
  | _ -> false
  | exception Invalid_argument _ -> true

let test_prng_contracts () =
  let rng = Prng.create 1 in
  check "int bound 0" true (raises_invalid (fun () -> Prng.int rng 0));
  check "int_in empty" true (raises_invalid (fun () -> Prng.int_in rng 3 2));
  check "choose empty" true (raises_invalid (fun () -> Prng.choose rng [||]));
  check "choose_list empty" true (raises_invalid (fun () -> Prng.choose_list rng []));
  check "sample bad k" true
    (raises_invalid (fun () -> Prng.sample_without_replacement rng 5 3))

let line n = Digraph.of_arcs n (List.init (n - 1) (fun i -> (i, i + 1)))

let test_dipath_contracts () =
  let g = line 5 in
  let p = Dipath.make g [ 0; 1; 2 ] in
  check "make without an arc" true (raises_invalid (fun () -> Dipath.make g [ 0; 2 ]));
  check "make one vertex" true (raises_invalid (fun () -> Dipath.make g [ 0 ]));
  check "make out of range" true (raises_invalid (fun () -> Dipath.make g [ 3; 4; 5 ]));
  check "of_arcs not chaining" true (raises_invalid (fun () -> Dipath.of_arcs g [ 0; 2 ]));
  check "of_arcs bad arc" true
    (raises_invalid (fun () -> Dipath.of_arcs g [ Dipath.n_arcs p + 9 ]))

let test_instance_contracts () =
  let g = line 4 in
  let dag = Dag.of_digraph_exn g in
  let inst = Instance.make dag [ Dipath.make g [ 0; 1 ] ] in
  check "path index" true (raises_invalid (fun () -> Instance.path inst 1));
  check "paths_through bad arc" true
    (raises_invalid (fun () -> Instance.n_paths_through inst 99));
  check "arc_load bad arc" true (raises_invalid (fun () -> Load.arc_load inst (-1)));
  check "max_load_arc_among empty" true
    (raises_invalid (fun () -> Load.max_load_arc_among inst []))

let test_grooming_contracts () =
  let g = line 4 in
  let dag = Dag.of_digraph_exn g in
  let inst = Instance.make dag [ Dipath.make g [ 0; 1 ] ] in
  check "greedy negative w" true (raises_invalid (fun () -> Grooming.greedy inst ~w:(-1)));
  check "exact negative w" true (raises_invalid (fun () -> Grooming.exact inst ~w:(-1)));
  check "satisfy negative w is None" true (Grooming.satisfy inst ~w:(-1) = None)

let test_replication_contracts () =
  check "no sets" true
    (raises_invalid (fun () ->
         Replication.covering_coloring ~n_base:3 ~sets:[||] ~h:1 ~n_colors:3));
  check "set element range" true
    (raises_invalid (fun () ->
         Replication.covering_coloring ~n_base:2 ~sets:[| [ 5 ] |] ~h:1 ~n_colors:2));
  check "ceil_div zero" true (raises_invalid (fun () -> Replication.ceil_div 3 0));
  check "theorem6_upper negative" true
    (raises_invalid (fun () -> Bounds.theorem6_upper ~n_internal_cycles:(-1) 2))

let test_generator_contracts () =
  let rng = Prng.create 1 in
  let module G = Wl_netgen.Generators in
  check "layered bad" true
    (raises_invalid (fun () -> G.layered rng ~layers:0 ~width:3 ~p:0.5));
  check "tree bad" true (raises_invalid (fun () -> G.random_rooted_tree rng 0));
  check "cycles bad" true
    (raises_invalid (fun () -> G.upp_internal_cycles rng ~cycles:0 ()));
  check "backbone bad" true
    (raises_invalid (fun () -> G.backbone rng ~pops:0 ~levels:3));
  check "hotspot bad" true
    (raises_invalid (fun () ->
         Wl_netgen.Traffic.hotspot rng (G.random_rooted_tree rng 5) ~hubs:0
           ~bias:0.5 3))

let test_exact_contracts () =
  let g = Wl_conflict.Ugraph.create 3 in
  check "k_colorable negative" true
    (raises_invalid (fun () -> Wl_conflict.Exact.k_colorable g (-1)))

(* The CLI dispatches on these, so every constructor must keep a distinct
   sysexits-style code and a printable message. *)
let test_error_exit_codes () =
  let samples =
    [
      Error.Parse { line = 3; msg = "boom" };
      Error.Invalid_path "p";
      Error.Cyclic "c";
      Error.Bad_index { what = "path"; index = 7 };
      Error.Invalid_op "op";
      Error.Precondition "pre";
      Error.Unsupported_version 9;
      Error.Io "io";
    ]
  in
  let codes = List.map Error.exit_code samples in
  check_int "all codes distinct" (List.length samples)
    (List.length (List.sort_uniq compare codes));
  List.iter2
    (fun e code ->
      check "sysexits range" true (code >= 64 && code <= 78);
      check "message nonempty" true (String.length (Error.to_string e) > 0))
    samples codes;
  check "raise_error raises" true
    (match Error.raise_error (Error.Io "x") with
    | exception Error.Error (Error.Io "x") -> true
    | _ -> false)

(* Exhaustive wire-code round-trip: to_code must agree with exit_code on
   every constructor, and of_code over the stable rendering must recover
   the constructor — the contract that keeps wire error frames, CLI exit
   statuses and library errors in one namespace. *)
let test_error_wire_codes () =
  let samples =
    [
      Error.Parse { line = 3; msg = "boom" };
      Error.Parse { line = 0; msg = "headerless" };
      Error.Invalid_path "p not a dipath";
      Error.Cyclic "cycle through 3";
      Error.Bad_index { what = "path"; index = 7 };
      Error.Bad_index { what = "tenant: shard"; index = 12 };
      Error.Invalid_op "dead handle";
      Error.Precondition "pre";
      Error.Unsupported_version 9;
      Error.Io "read failed";
    ]
  in
  List.iter
    (fun e ->
      check_int "to_code = exit_code" (Error.exit_code e) (Error.to_code e);
      match Error.of_code (Error.to_code e) (Error.to_string e) with
      | None -> Alcotest.failf "of_code %d returned None" (Error.to_code e)
      | Some e' ->
        Alcotest.(check string)
          "of_code round-trip" (Error.to_string e) (Error.to_string e');
        check "same constructor" true (Error.to_code e = Error.to_code e'))
    samples;
  (* the round-trip is exact, not just rendering-equal *)
  List.iter
    (fun e ->
      check "structural round-trip" true
        (Error.of_code (Error.to_code e) (Error.to_string e) = Some e))
    samples;
  check "unknown code" true (Error.of_code 63 "x" = None);
  check "unknown code high" true (Error.of_code 99 "x" = None)

let suite =
  [
    ( "contracts",
      [
        Alcotest.test_case "prng" `Quick test_prng_contracts;
        Alcotest.test_case "dipath" `Quick test_dipath_contracts;
        Alcotest.test_case "instance and load" `Quick test_instance_contracts;
        Alcotest.test_case "grooming" `Quick test_grooming_contracts;
        Alcotest.test_case "replication and bounds" `Quick test_replication_contracts;
        Alcotest.test_case "generators" `Quick test_generator_contracts;
        Alcotest.test_case "exact coloring" `Quick test_exact_contracts;
        Alcotest.test_case "error exit codes" `Quick test_error_exit_codes;
        Alcotest.test_case "error wire codes" `Quick test_error_wire_codes;
      ] );
  ]
