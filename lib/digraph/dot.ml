let palette =
  [|
    "#e41a1c"; "#377eb8"; "#4daf4a"; "#984ea3"; "#ff7f00"; "#a65628";
    "#f781bf"; "#17becf"; "#bcbd22"; "#666666";
  |]

let escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      if c = '"' || c = '\\' then Buffer.add_char buf '\\';
      Buffer.add_char buf c)
    s;
  Buffer.contents buf

let header name = Printf.sprintf "digraph \"%s\" {\n  rankdir=LR;\n  node [shape=circle, fontsize=10];\n" (escape name)

let node_lines g =
  let buf = Buffer.create 256 in
  Digraph.iter_vertices
    (fun v ->
      Buffer.add_string buf
        (Printf.sprintf "  n%d [label=\"%s\"];\n" v (escape (Digraph.label g v))))
    g;
  Buffer.contents buf

let of_digraph g =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (header "G");
  Buffer.add_string buf (node_lines g);
  Digraph.iter_arcs
    (fun _ u v -> Buffer.add_string buf (Printf.sprintf "  n%d -> n%d;\n" u v))
    g;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let of_colored_paths ?(name = "G") g paths =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (header name);
  Buffer.add_string buf (node_lines g);
  (* Arcs not used by any path are drawn gray. *)
  let used = Hashtbl.create 64 in
  List.iter
    (fun (p, color) ->
      List.iter
        (fun a ->
          let prev = Option.value ~default:[] (Hashtbl.find_opt used a) in
          Hashtbl.replace used a (color :: prev))
        (Dipath.arcs p))
    paths;
  Digraph.iter_arcs
    (fun a u v ->
      match Hashtbl.find_opt used a with
      | None ->
        Buffer.add_string buf
          (Printf.sprintf "  n%d -> n%d [color=\"#cccccc\"];\n" u v)
      | Some colors ->
        let pens =
          List.rev_map
            (fun c -> palette.(c mod Array.length palette))
            colors
          |> String.concat ":"
        in
        Buffer.add_string buf
          (Printf.sprintf "  n%d -> n%d [color=\"%s\", penwidth=1.6];\n" u v pens))
    g;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let write_file path contents =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents)
