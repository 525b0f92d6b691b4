open Wl_digraph
module Ugraph = Wl_conflict.Ugraph
module Metrics = Wl_obs.Metrics
module Trace = Wl_obs.Trace

let c_builds = Metrics.counter "conflict.builds"

let build_impl inst =
  let n = Instance.n_paths inst in
  let cg = Ugraph.create n in
  let g = Instance.graph inst in
  (* Emit conflict pairs straight from the CSR slices: no per-arc user list
     is materialized. *)
  let off, ids = Instance.csr_index inst in
  let module Flat = Wl_util.Flat in
  for a = 0 to Digraph.n_arcs g - 1 do
    let lo = Flat.get off a and hi = Flat.get off (a + 1) in
    for i = lo to hi - 1 do
      (* Hoisted: the Bigarray read costs two loads and ocamlopt does
         no loop-invariant motion of its own. *)
      let u = Flat.unsafe_get ids i in
      for j = i + 1 to hi - 1 do
        Ugraph.add_edge cg u (Flat.unsafe_get ids j)
      done
    done
  done;
  cg

let build inst =
  Metrics.incr c_builds;
  if Trace.enabled () then
    Trace.with_span
      ~args:[ ("paths", Trace.Int (Instance.n_paths inst)) ]
      "conflict.build"
      (fun () -> build_impl inst)
  else build_impl inst

let helly_witness inst =
  let cg = build inst in
  let n = Instance.n_paths inst in
  let share_common_arc is =
    match is with
    | [] -> true
    | i0 :: rest ->
      List.exists
        (fun a -> List.for_all (fun i -> Dipath.mem_arc (Instance.path inst i) a) rest)
        (Dipath.arcs (Instance.path inst i0))
  in
  let result = ref None in
  (try
     for i = 0 to n - 1 do
       for j = i + 1 to n - 1 do
         if Ugraph.mem_edge cg i j then
           for k = j + 1 to n - 1 do
             if
               Ugraph.mem_edge cg i k && Ugraph.mem_edge cg j k
               && not (share_common_arc [ i; j; k ])
             then begin
               result := Some [ i; j; k ];
               raise Exit
             end
           done
       done
     done
   with Exit -> ());
  !result
