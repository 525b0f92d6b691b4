open Wl_digraph
module Union_find = Wl_util.Union_find

type walk = (Digraph.arc * bool) list

type canonical = {
  b : Digraph.vertex array;
  c : Digraph.vertex array;
  down : Dipath.t array;
  up : Dipath.t array;
}

let internal_vertex d v =
  let g = Dag.graph d in
  Digraph.in_degree g v > 0 && Digraph.out_degree g v > 0

let arc_internal d a =
  let g = Dag.graph d in
  internal_vertex d (Digraph.arc_src g a) && internal_vertex d (Digraph.arc_dst g a)

let find d =
  Traversal.undirected_cycle ~keep_arc:(arc_internal d) (Dag.graph d)

let has_internal_cycle d = find d <> None

let count_independent d =
  let g = Dag.graph d in
  let n = Digraph.n_vertices g in
  let internal = Array.init n (internal_vertex d) in
  let uf = Union_find.create n in
  let m' = ref 0 in
  Digraph.iter_arcs
    (fun _ u v ->
      if internal.(u) && internal.(v) then begin
        incr m';
        ignore (Union_find.union uf u v)
      end)
    g;
  let n' = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 internal in
  (* Components among internal vertices only. *)
  let comps =
    let seen = Hashtbl.create 16 in
    let c = ref 0 in
    Array.iteri
      (fun v is_int ->
        if is_int then begin
          let r = Union_find.find uf v in
          if not (Hashtbl.mem seen r) then begin
            Hashtbl.add seen r ();
            incr c
          end
        end)
      internal;
    !c
  in
  !m' - n' + comps

let walk_vertices g walk =
  (* Vertex sequence w0 .. wm (wm = w0) of a closed walk. *)
  match walk with
  | [] -> invalid_arg "Internal_cycle: empty walk"
  | (a0, f0) :: _ ->
    let start = if f0 then Digraph.arc_src g a0 else Digraph.arc_dst g a0 in
    let rec go v acc = function
      | [] -> List.rev acc
      | (a, fwd) :: rest ->
        let u, w = Digraph.arc_endpoints g a in
        let v' =
          if fwd then begin
            if u <> v then invalid_arg "Internal_cycle: walk not connected";
            w
          end
          else begin
            if w <> v then invalid_arg "Internal_cycle: walk not connected";
            u
          end
        in
        go v' (v' :: acc) rest
    in
    let rest = go start [start] walk in
    (match List.rev rest with
    | last :: _ when last = start -> rest
    | _ -> invalid_arg "Internal_cycle: walk not closed")

let canonicalize d walk =
  let g = Dag.graph d in
  ignore (walk_vertices g walk);
  let arr = Array.of_list walk in
  let m = Array.length arr in
  if Array.for_all (fun (_, f) -> f) arr || Array.for_all (fun (_, f) -> not f) arr
  then invalid_arg "Internal_cycle.canonicalize: directed cycle in a DAG?";
  (* Rotate so that position 0 starts a forward run and the walk ends with a
     backward run. *)
  let rec find_start i =
    if i >= m then invalid_arg "Internal_cycle.canonicalize: no boundary"
    else
      let _, prev_f = arr.((i + m - 1) mod m) in
      let _, cur_f = arr.(i) in
      if (not prev_f) && cur_f then i else find_start (i + 1)
  in
  let s = find_start 0 in
  let rotated = Array.init m (fun i -> arr.((s + i) mod m)) in
  (* Group into maximal same-direction runs. *)
  let runs = ref [] in
  let cur = ref [ rotated.(0) ] in
  for i = 1 to m - 1 do
    let _, f = rotated.(i) in
    let _, fprev = List.hd !cur in
    if f = fprev then cur := rotated.(i) :: !cur
    else begin
      runs := List.rev !cur :: !runs;
      cur := [ rotated.(i) ]
    end
  done;
  runs := List.rev !cur :: !runs;
  let runs = List.rev !runs in
  let k2 = List.length runs in
  if k2 mod 2 <> 0 then invalid_arg "Internal_cycle.canonicalize: odd run count";
  let k = k2 / 2 in
  let down = Array.make k None and up = Array.make k None in
  List.iteri
    (fun i run ->
      let arcs = List.map fst run in
      let _, fwd = List.hd run in
      if i mod 2 = 0 then begin
        assert fwd;
        down.(i / 2) <- Some (Dipath.of_arcs g arcs)
      end
      else begin
        assert (not fwd);
        (* Backward run walks c_i back to b_{i+1}; as a dipath reverse it. *)
        up.(i / 2) <- Some (Dipath.of_arcs g (List.rev arcs))
      end)
    runs;
  let down = Array.map Option.get down and up = Array.map Option.get up in
  let b = Array.map Dipath.src down in
  let c = Array.map Dipath.dst down in
  { b; c; down; up }

let find_canonical d =
  Option.map (canonicalize d) (find d)

let verify_canonical d can =
  let k = Array.length can.b in
  k >= 1
  && Array.length can.c = k
  && Array.length can.down = k
  && Array.length can.up = k
  && Array.for_all (internal_vertex d) can.b
  && Array.for_all (internal_vertex d) can.c
  && (let ok = ref true in
      for i = 0 to k - 1 do
        if Dipath.src can.down.(i) <> can.b.(i) then ok := false;
        if Dipath.dst can.down.(i) <> can.c.(i) then ok := false;
        if Dipath.src can.up.(i) <> can.b.((i + 1) mod k) then ok := false;
        if Dipath.dst can.up.(i) <> can.c.(i) then ok := false;
        (* Every internal vertex of each segment must be internal in G too:
           interior segment vertices have degree 2 on the cycle, hence are
           internal whenever they have both an in- and an out-arc — which
           they do, being interior to a dipath. *)
        List.iter
          (fun v -> if not (internal_vertex d v) then ok := false)
          (Dipath.vertices can.down.(i) @ Dipath.vertices can.up.(i))
      done;
      !ok)

let arcs_of_canonical can =
  let tbl = Hashtbl.create 32 in
  let out = ref [] in
  Array.iter
    (fun p ->
      List.iter
        (fun a ->
          if not (Hashtbl.mem tbl a) then begin
            Hashtbl.add tbl a ();
            out := a :: !out
          end)
        (Dipath.arcs p))
    (Array.append can.down can.up);
  List.rev !out

let pp_canonical d ppf can =
  let g = Dag.graph d in
  let k = Array.length can.b in
  Format.fprintf ppf "@[<v>internal cycle, k = %d@," k;
  for i = 0 to k - 1 do
    Format.fprintf ppf "  down %d: %a@," i (Dipath.pp g) can.down.(i);
    Format.fprintf ppf "  up   %d: %a@," i (Dipath.pp g) can.up.(i)
  done;
  Format.fprintf ppf "@]"
