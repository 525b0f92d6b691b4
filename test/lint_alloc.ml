(* Allocation-discipline lint for the GC-quiet hot files.

   The solver core (theorem1.ml), DSATUR (coloring.ml), the engine
   (engine.ml) and the graph substrate's walkers (digraph.ml) promise
   gc.minor_w = 0 on their warm paths; every allocation primitive they
   do contain lives on a cold path — session or graph construction,
   capacity growth, cold queries.  This lint enforces that
   each such line says so: any line matching an allocation primitive
   must carry an [alloc-ok] comment marker, so a new allocation cannot
   slip into these files without a visible, reviewable claim that it is
   cold.  (The claim itself is checked dynamically by the zero-alloc
   tests in test_alloc.ml and the bench gate's gc.minor_w figure.)

   Usage: lint_alloc FILE...; exits 1 listing the offending lines. *)

let primitives =
  [ "Array.make"; "Array.init"; "Array.create_float"; "Hashtbl.create";
    "Queue.create"; "Buffer.create"; "Array.append"; "Array.of_list" ]

let contains line sub =
  let n = String.length line and m = String.length sub in
  let rec at i = i + m <= n && (String.sub line i m = sub || at (i + 1)) in
  at 0

let lint_file path =
  let ic = open_in path in
  let bad = ref [] in
  (try
     let lineno = ref 0 in
     while true do
       let line = input_line ic in
       incr lineno;
       if
         List.exists (contains line) primitives
         && not (contains line "alloc-ok")
       then bad := (!lineno, line) :: !bad
     done
   with End_of_file -> close_in ic);
  List.rev !bad

let () =
  let files = List.tl (Array.to_list Sys.argv) in
  let failures =
    List.concat_map
      (fun f -> List.map (fun (l, s) -> (f, l, s)) (lint_file f))
      files
  in
  if failures = [] then
    Printf.printf "lint_alloc: %d file(s) clean\n" (List.length files)
  else begin
    List.iter
      (fun (f, l, s) ->
        Printf.eprintf
          "%s:%d: allocation primitive without an alloc-ok marker:\n  %s\n" f
          l (String.trim s))
      failures;
    Printf.eprintf
      "lint_alloc: %d unmarked allocation(s).  Either move the allocation \
       off the hot files, or mark the line with (* alloc-ok *) and justify \
       coldness in review.\n"
      (List.length failures);
    exit 1
  end
