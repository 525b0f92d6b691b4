(* Tests for the DOT and SVG renderers: structural sanity of the output
   (the images themselves are eyeballed via examples/gap_gallery.exe). *)

open Helpers
open Wl_core
module Dot = Wl_digraph.Dot
module Svg = Wl_digraph.Svg

let count_occurrences s sub =
  let n = String.length s and m = String.length sub in
  let rec go i acc =
    if i + m > n then acc
    else if String.sub s i m = sub then go (i + 1) (acc + 1)
    else go (i + 1) acc
  in
  if m = 0 then 0 else go 0 0

let colored_instance () =
  let inst = Wl_netgen.Figures.fig3 () in
  let report = Solver.solve inst in
  let pairs =
    List.mapi (fun i p -> (p, report.Solver.assignment.(i))) (Instance.paths_list inst)
  in
  (inst, pairs)

let test_dot_plain () =
  let inst, _ = colored_instance () in
  let dot = Dot.of_digraph (Instance.graph inst) in
  check "digraph header" true (contains dot "digraph");
  check "has arrow syntax" true (contains dot "->");
  check_int "one node line per vertex" 5 (count_occurrences dot "label=");
  check "label present" true (contains dot "a1")

let test_dot_colored () =
  let inst, pairs = colored_instance () in
  let dot = Dot.of_colored_paths (Instance.graph inst) pairs in
  check "pen colors present" true (contains dot "penwidth");
  (* Every arc of fig3 carries two dipaths, so no gray arcs remain. *)
  check "no unused arcs" false (contains dot "#cccccc")

let test_dot_escapes () =
  let g = Wl_digraph.Digraph.create () in
  let a = Wl_digraph.Digraph.add_vertex ~label:"we\"ird" g in
  let b = Wl_digraph.Digraph.add_vertex g in
  ignore (Wl_digraph.Digraph.add_arc g a b);
  let dot = Dot.of_digraph g in
  check "escaped quote" true (contains dot "we\\\"ird")

let test_svg_plain () =
  let inst, _ = colored_instance () in
  let svg = Svg.of_digraph (Instance.graph inst) in
  check "svg header" true (contains svg "<svg");
  check "closes" true (contains svg "</svg>");
  check_int "one circle per vertex" 5 (count_occurrences svg "<circle");
  check_int "arcs + arrow marker paths" 5
    (count_occurrences svg "marker-end=\"url(#arrow)\"");
  check "text labels" true (contains svg ">a1</text>")

let test_svg_colored () =
  let inst, pairs = colored_instance () in
  let svg = Svg.of_colored_paths (Instance.graph inst) pairs in
  (* 5 dipaths x 2 arcs each = 10 colored strokes. *)
  check_int "colored strokes" 10 (count_occurrences svg "stroke-width=\"2\"");
  check "wavelength palette used" true (contains svg "#e41a1c")

let test_svg_escaping () =
  let g = Wl_digraph.Digraph.create () in
  let a = Wl_digraph.Digraph.add_vertex ~label:"x<y&z" g in
  let b = Wl_digraph.Digraph.add_vertex g in
  ignore (Wl_digraph.Digraph.add_arc g a b);
  let svg = Svg.of_digraph g in
  check "angle escaped" true (contains svg "x&lt;y&amp;z")

let renders_never_crash =
  qtest "renderers accept arbitrary instances" seed_gen ~count:25 (fun seed ->
      let inst = random_instance seed in
      let g = Instance.graph inst in
      let pairs = List.mapi (fun i p -> (p, i)) (Instance.paths_list inst) in
      String.length (Dot.of_colored_paths g pairs) > 0
      && String.length (Svg.of_colored_paths g pairs) > 0)

let test_file_write () =
  let tmp = Filename.temp_file "wl_svg" ".svg" in
  Fun.protect
    ~finally:(fun () -> Sys.remove tmp)
    (fun () ->
      let inst, pairs = colored_instance () in
      Svg.write_file tmp (Svg.of_colored_paths (Instance.graph inst) pairs);
      let ic = open_in tmp in
      let len = in_channel_length ic in
      close_in ic;
      check "non-empty file" true (len > 100))

let suite =
  [
    ( "render",
      [
        Alcotest.test_case "dot plain" `Quick test_dot_plain;
        Alcotest.test_case "dot colored" `Quick test_dot_colored;
        Alcotest.test_case "dot escaping" `Quick test_dot_escapes;
        Alcotest.test_case "svg plain" `Quick test_svg_plain;
        Alcotest.test_case "svg colored" `Quick test_svg_colored;
        Alcotest.test_case "svg escaping" `Quick test_svg_escaping;
        renders_never_crash;
        Alcotest.test_case "file write" `Quick test_file_write;
      ] );
  ]
