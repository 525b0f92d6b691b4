open Wl_digraph
open Wl_core
module Engine = Wl_engine.Engine
module Script = Wl_engine.Script

type t = {
  inst : Instance.t;
  ops : Engine.op list;
}

let make ?(ops = []) inst = { inst; ops }

type parts = {
  n_vertices : int;
  arcs : (int * int) list;
  paths : int list list;
  ops : Engine.op list;
}

let to_parts t =
  let g = Instance.graph t.inst in
  {
    n_vertices = Digraph.n_vertices g;
    arcs = Digraph.arcs g;
    paths = List.map Dipath.vertices (Instance.paths_list t.inst);
    ops = t.ops;
  }

let of_parts p =
  if p.n_vertices < 0 then None
  else
    match Digraph.of_arcs p.n_vertices p.arcs with
    | exception Invalid_argument _ -> None
    | g -> (
      match Instance.of_vertex_seqs g p.paths with
      | Error _ -> None
      | Ok inst -> Some { inst; ops = p.ops })

let n_vertices t = Digraph.n_vertices (Instance.graph t.inst)
let n_paths t = Instance.n_paths t.inst
let n_ops (t : t) = List.length t.ops

let wl_string (t : t) = Serial.to_string t.inst

let ops_string (t : t) =
  if t.ops = [] then None else Some (Script.to_string t.ops)

let write ~prefix t =
  let wl = prefix ^ ".wl" in
  Serial.write_file wl t.inst;
  match ops_string t with
  | None -> [ wl ]
  | Some _ ->
    let ops = prefix ^ ".wlops" in
    Script.write_file ops t.ops;
    [ wl; ops ]

let ops_sibling wl =
  if Filename.check_suffix wl ".wl" then Filename.chop_suffix wl ".wl" ^ ".wlops"
  else wl ^ ".wlops"

let read ~wl =
  match Serial.read_file wl with
  | Error e -> Error e
  | Ok inst ->
    let ops_file = ops_sibling wl in
    if Sys.file_exists ops_file then
      match Script.read_file ops_file with
      | Error e -> Error e
      | Ok ops -> Ok { inst; ops }
    else Ok { inst; ops = [] }
