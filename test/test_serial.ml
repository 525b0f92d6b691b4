(* Tests for the text instance format, its versioned header, and the JSON
   mirror. *)

open Helpers
open Wl_core
module Digraph = Wl_digraph.Digraph
module Dipath = Wl_digraph.Dipath

let same_instance inst inst' =
  same_graph (Instance.graph inst) (Instance.graph inst')
  && List.equal
       (fun p q -> Dipath.vertices p = Dipath.vertices q)
       (Instance.paths_list inst) (Instance.paths_list inst')

let roundtrip ?version inst =
  match Serial.of_string (Serial.to_string ?version inst) with
  | Error e -> Alcotest.failf "reparse failed: %s" (Error.to_string e)
  | Ok inst' -> same_instance inst inst'

let json_roundtrip ?pretty inst =
  match Serial.of_json (Serial.to_json ?pretty inst) with
  | Error e -> Alcotest.failf "json reparse failed: %s" (Error.to_string e)
  | Ok inst' -> same_instance inst inst'

let test_roundtrip_figures () =
  List.iter
    (fun inst ->
      check "roundtrip v2" true (roundtrip inst);
      check "roundtrip v1" true (roundtrip ~version:1 inst);
      check "roundtrip json" true (json_roundtrip inst);
      check "roundtrip json pretty" true (json_roundtrip ~pretty:true inst))
    [
      Wl_netgen.Figures.fig3 ();
      Wl_netgen.Figures.fig5 3;
      Wl_netgen.Figures.havet 2;
      Wl_netgen.Figures.fig1 4;
    ]

let roundtrip_random =
  qtest "roundtrip on random instances" seed_gen ~count:40 (fun seed ->
      let inst = random_instance seed in
      roundtrip inst && roundtrip ~version:1 inst && json_roundtrip inst)

let test_version_header () =
  let inst = Wl_netgen.Figures.fig3 () in
  let v2 = Serial.to_string inst in
  let v1 = Serial.to_string ~version:1 inst in
  check "v2 has header" true (String.length v2 > 5 && String.sub v2 0 5 = "wl 2\n");
  check "v1 is headerless v2" true (v2 = "wl 2\n" ^ v1);
  (* an explicit v1 header is also accepted *)
  (match Serial.of_string ("wl 1\n" ^ v1) with
  | Ok inst' -> check "wl 1 header accepted" true (same_instance inst inst')
  | Error e -> Alcotest.failf "wl 1 header rejected: %s" (Error.to_string e));
  match Serial.of_string ("wl 99\n" ^ v1) with
  | Ok _ -> Alcotest.fail "future version accepted"
  | Error (Error.Unsupported_version 99) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Error.to_string e)

let test_labels_roundtrip () =
  let inst = Wl_netgen.Figures.fig3 () in
  match Serial.of_string (Serial.to_string inst) with
  | Error e -> Alcotest.failf "reparse failed: %s" (Error.to_string e)
  | Ok inst' ->
    check "labels preserved" true (Digraph.label (Instance.graph inst') 0 = "a1")

let test_labels_json_roundtrip () =
  let inst = Wl_netgen.Figures.fig3 () in
  match Serial.of_json (Serial.to_json inst) with
  | Error e -> Alcotest.failf "json reparse failed: %s" (Error.to_string e)
  | Ok inst' ->
    check "labels preserved" true (Digraph.label (Instance.graph inst') 0 = "a1")

let parse_error expected text =
  match Serial.of_string text with
  | Ok _ -> Alcotest.failf "expected parse error %S" expected
  | Error e ->
    let msg = Error.to_string e in
    check (Printf.sprintf "error mentions %S (got %S)" expected msg) true
      (contains msg expected)

let test_parse_errors () =
  parse_error "missing 'dag" "# only a comment\n";
  parse_error "before 'dag'" "arc 0 1\ndag 2";
  parse_error "duplicate" "dag 2\ndag 3";
  parse_error "unknown directive" "dag 2\nfoo 1";
  parse_error "not an integer" "dag 2\narc 0 x";
  parse_error "no such vertex" "dag 2\narc 0 5";
  parse_error "missing arc" "dag 3\narc 0 1\npath 0 2";
  parse_error "out of range" "dag 2\nvlabel 7 z";
  parse_error "self-loop" "dag 2\narc 1 1";
  parse_error "before 'dag'" "dag 2\nwl 2"

let json_error expected text =
  match Serial.of_json text with
  | Ok _ -> Alcotest.failf "expected json error %S" expected
  | Error e ->
    let msg = Error.to_string e in
    check (Printf.sprintf "json error mentions %S (got %S)" expected msg) true
      (contains msg expected)

let test_json_errors () =
  json_error "expected" "[1, 2]";
  (* syntax error *)
  json_error "vertices" "{\"format\": \"wl-instance\"}";
  json_error "pair of integers" "{\"vertices\": 3, \"arcs\": [[0]]}";
  json_error "self-loop" "{\"vertices\": 3, \"arcs\": [[1, 1]]}";
  json_error "missing arc" "{\"vertices\": 3, \"arcs\": [[0, 1]], \"paths\": [[0, 2]]}";
  json_error "unknown format" "{\"format\": \"nope\", \"vertices\": 1}";
  json_error "at most 1048576" "{\"vertices\": 1048577}";
  json_error "at most 1048576" "{\"vertices\": 4611686018427387903}";
  (match Serial.of_json "{\"vertices\": 2, \"version\": 99}" with
  | Error (Error.Unsupported_version 99) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Error.to_string e)
  | Ok _ -> Alcotest.fail "future json version accepted");
  json_error "not a DAG" "{\"vertices\": 2, \"arcs\": [[0, 1], [1, 0]]}"

let test_comments_and_blanks () =
  let text = "# header\n\ndag 3  # three vertices\narc 0 1\n  arc 1 2  \n\npath 0 1 2\n" in
  match Serial.of_string text with
  | Error e -> Alcotest.failf "should parse: %s" (Error.to_string e)
  | Ok inst ->
    check_int "paths" 1 (Instance.n_paths inst);
    check_int "arcs" 2 (Digraph.n_arcs (Instance.graph inst))

let test_file_io () =
  let inst = Wl_netgen.Figures.fig5 2 in
  let tmp = Filename.temp_file "wl_test" ".wl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove tmp)
    (fun () ->
      Serial.write_file tmp inst;
      match Serial.read_file tmp with
      | Ok inst' -> check "file roundtrip" true (same_instance inst inst')
      | Error e -> Alcotest.failf "read failed: %s" (Error.to_string e))

let test_file_io_json () =
  let inst = Wl_netgen.Figures.fig5 2 in
  let tmp = Filename.temp_file "wl_test" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove tmp)
    (fun () ->
      let oc = open_out tmp in
      output_string oc (Serial.to_json ~pretty:true inst);
      close_out oc;
      (* read_file sniffs the leading '{' and dispatches to the JSON reader *)
      match Serial.read_file tmp with
      | Ok inst' -> check "json file roundtrip" true (same_instance inst inst')
      | Error e -> Alcotest.failf "read failed: %s" (Error.to_string e))

let test_missing_file () =
  match Serial.read_file "/nonexistent/wl-instance.wl" with
  | Ok _ -> Alcotest.fail "read of missing file succeeded"
  | Error (Error.Io _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Error.to_string e)

let test_rejects_directed_cycle () =
  parse_error "not a DAG" "dag 2\narc 0 1\narc 1 0"

(* Determinism across serialization: coloring the reparsed instance gives
   the same wavelengths (arc ids and family order round-trip intact). *)
let deterministic_through_io =
  qtest "theorem1 coloring survives a serialization roundtrip" seed_gen
    ~count:25 (fun seed ->
      let inst = random_nic_instance ~n:14 ~k:10 seed in
      match Serial.of_string (Serial.to_string inst) with
      | Error _ -> false
      | Ok inst' -> Theorem1.color inst = Theorem1.color inst')

let deterministic_through_json =
  qtest "theorem1 coloring survives a JSON roundtrip" seed_gen ~count:25
    (fun seed ->
      let inst = random_nic_instance ~n:14 ~k:10 seed in
      match Serial.of_json (Serial.to_json inst) with
      | Error _ -> false
      | Ok inst' -> Theorem1.color inst = Theorem1.color inst')

let suite =
  [
    ( "serial",
      [
        Alcotest.test_case "figure roundtrips" `Quick test_roundtrip_figures;
        roundtrip_random;
        Alcotest.test_case "version header" `Quick test_version_header;
        Alcotest.test_case "labels roundtrip" `Quick test_labels_roundtrip;
        Alcotest.test_case "labels json roundtrip" `Quick test_labels_json_roundtrip;
        Alcotest.test_case "parse errors" `Quick test_parse_errors;
        Alcotest.test_case "json errors" `Quick test_json_errors;
        Alcotest.test_case "comments and blanks" `Quick test_comments_and_blanks;
        Alcotest.test_case "file io" `Quick test_file_io;
        Alcotest.test_case "json file io" `Quick test_file_io_json;
        Alcotest.test_case "missing file" `Quick test_missing_file;
        Alcotest.test_case "rejects directed cycles" `Quick
          test_rejects_directed_cycle;
        deterministic_through_io;
        deterministic_through_json;
      ] );
  ]
