open Wl_digraph
module Dag = Wl_dag.Dag
module Jsonx = Wl_json.Jsonx
module Scan = Wl_util.Scan

(* Version 2 only adds the [wl 2] header line; the body grammar is shared.
   Version 1 (headerless) output is kept byte-identical to the historical
   format so checked-in fixtures and golden files stay stable. *)
let current_version = 2

let body_to_buffer buf inst =
  let g = Instance.graph inst in
  Buffer.add_string buf (Printf.sprintf "dag %d\n" (Digraph.n_vertices g));
  Digraph.iter_vertices
    (fun v ->
      let l = Digraph.label g v in
      if l <> Printf.sprintf "v%d" v then
        Buffer.add_string buf (Printf.sprintf "vlabel %d %s\n" v l))
    g;
  Digraph.iter_arcs
    (fun _ u v -> Buffer.add_string buf (Printf.sprintf "arc %d %d\n" u v))
    g;
  List.iter
    (fun p ->
      Buffer.add_string buf "path";
      List.iter (fun v -> Buffer.add_string buf (Printf.sprintf " %d" v)) (Dipath.vertices p);
      Buffer.add_char buf '\n')
    (Instance.paths_list inst)

let to_string ?(version = current_version) inst =
  if version < 1 || version > current_version then
    invalid_arg (Printf.sprintf "Serial.to_string: unknown version %d" version);
  let buf = Buffer.create 1024 in
  if version >= 2 then Buffer.add_string buf (Printf.sprintf "wl %d\n" version);
  body_to_buffer buf inst;
  Buffer.contents buf

let of_string text =
  let sc = Scan.of_string text in
  let err msg = Error (Error.Parse { line = Scan.line sc; msg }) in
  let not_int i = err (Printf.sprintf "not an integer: %S" (Scan.word sc i)) in
  let version = ref None and graph = ref None in
  let paths_rev = ref [] (* line, vertex sequence *) in
  let finish () =
    match !graph with
    | None -> Error (Error.Parse { line = 0; msg = "missing 'dag <n>' header" })
    | Some g -> (
      match Dag.of_digraph g with
      | Error msg -> Error (Error.Cyclic msg)
      | Ok dag ->
        let rec build acc = function
          | [] -> Ok (Instance.make dag (List.rev acc))
          | (lineno, verts) :: rest -> (
            match Dipath.of_vertices g verts with
            | Ok p -> build (p :: acc) rest
            | Error msg ->
              Error
                (Error.Invalid_path (Printf.sprintf "line %d: bad path: %s" lineno msg)))
        in
        build [] (List.rev !paths_rev))
  in
  let rec go () =
    if not (Scan.next sc) then finish ()
    else
      let n = Scan.count sc in
      if Scan.is sc 0 "arc" && n = 3 then
        match (!graph, Scan.int sc 1, Scan.int sc 2) with
        | None, _, _ -> err "'arc' before 'dag'"
        | _, None, _ -> not_int 1
        | _, _, None -> not_int 2
        | Some g, Some u, Some v -> (
          match Digraph.add_arc g u v with
          | _ -> go ()
          | exception Invalid_argument msg -> err msg)
      else if Scan.is sc 0 "path" then
        if Option.is_none !graph then err "'path' before 'dag'"
        else
          match Scan.ints sc 1 with
          | Error i -> not_int i
          | Ok vs ->
            paths_rev := (Scan.line sc, vs) :: !paths_rev;
            go ()
      else if Scan.is sc 0 "vlabel" && n = 3 then
        match (!graph, Scan.int sc 1) with
        | None, _ -> err "'vlabel' before 'dag'"
        | _, None -> not_int 1
        | Some g, Some i ->
          if i < 0 || i >= Digraph.n_vertices g then err "vertex out of range"
          else begin
            Digraph.set_label g i (Scan.word sc 2);
            go ()
          end
      else if Scan.is sc 0 "dag" && n = 2 then
        match Scan.int sc 1 with
        | None -> not_int 1
        | Some count ->
          if Option.is_some !graph then err "duplicate 'dag' header"
          else if count > Digraph.max_vertices then
            err (Printf.sprintf "vertex count must be at most %d" Digraph.max_vertices)
          else begin
            let g = Digraph.create () in
            Digraph.add_vertices g count;
            graph := Some g;
            go ()
          end
      else if Scan.is sc 0 "wl" && n = 2 then
        match Scan.int sc 1 with
        | None -> not_int 1
        | Some v ->
          if Option.is_some !version then err "duplicate 'wl' header"
          else if Option.is_some !graph then err "'wl' header must come before 'dag'"
          else if v < 1 || v > current_version then Error (Error.Unsupported_version v)
          else begin
            version := Some v;
            go ()
          end
      else err (Printf.sprintf "unknown directive %S" (Scan.word sc 0))
  in
  go ()

(* --- JSON mirror ----------------------------------------------------------- *)

let to_json ?pretty inst =
  let g = Instance.graph inst in
  let labels =
    let acc = ref [] in
    Digraph.iter_vertices
      (fun v ->
        let l = Digraph.label g v in
        if l <> Printf.sprintf "v%d" v then
          acc := (string_of_int v, Jsonx.Str l) :: !acc)
      g;
    List.rev !acc
  in
  let arcs =
    List.map (fun (u, v) -> Jsonx.Arr [ Jsonx.Int u; Jsonx.Int v ]) (Digraph.arcs g)
  in
  let paths =
    List.map
      (fun p -> Jsonx.Arr (List.map (fun v -> Jsonx.Int v) (Dipath.vertices p)))
      (Instance.paths_list inst)
  in
  Jsonx.to_string ?pretty
    (Jsonx.Obj
       ([
          ("format", Jsonx.Str "wl-instance");
          ("version", Jsonx.Int current_version);
          ("vertices", Jsonx.Int (Digraph.n_vertices g));
        ]
       @ (if labels = [] then [] else [ ("labels", Jsonx.Obj labels) ])
       @ [ ("arcs", Jsonx.Arr arcs); ("paths", Jsonx.Arr paths) ]))

let json_err msg = Error (Error.Parse { line = 0; msg })

let int_pair_of_json what j =
  match Jsonx.to_list j with
  | Some [ a; b ] -> (
    match (Jsonx.to_int a, Jsonx.to_int b) with
    | Some u, Some v -> Ok (u, v)
    | _ -> json_err (Printf.sprintf "%s: expected a pair of integers" what))
  | _ -> json_err (Printf.sprintf "%s: expected a pair of integers" what)

let int_list_of_json what j =
  match Jsonx.to_list j with
  | None -> json_err (Printf.sprintf "%s: expected an array of integers" what)
  | Some xs ->
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | x :: rest -> (
        match Jsonx.to_int x with
        | Some v -> go (v :: acc) rest
        | None -> json_err (Printf.sprintf "%s: expected an array of integers" what))
    in
    go [] xs

let rec map_result f = function
  | [] -> Ok []
  | x :: rest -> (
    match f x with
    | Error _ as e -> e
    | Ok y -> ( match map_result f rest with Ok ys -> Ok (y :: ys) | Error _ as e -> e))

let of_json text =
  match Jsonx.parse text with
  | Error msg -> json_err msg
  | Ok (Jsonx.Obj _ as json) -> (
    (match Jsonx.member "format" json with
    | Some (Jsonx.Str "wl-instance") | None -> Ok ()
    | Some (Jsonx.Str other) -> json_err (Printf.sprintf "unknown format %S" other)
    | Some _ -> json_err "\"format\" must be a string")
    |> function
    | Error _ as e -> e
    | Ok () -> (
      (match Jsonx.member "version" json with
      | None -> Ok ()
      | Some v -> (
        match Jsonx.to_int v with
        | Some v when v >= 1 && v <= current_version -> Ok ()
        | Some v -> Error (Error.Unsupported_version v)
        | None -> json_err "\"version\" must be an integer"))
      |> function
      | Error _ as e -> e
      | Ok () -> (
        match Option.bind (Jsonx.member "vertices" json) Jsonx.to_int with
        | None -> json_err "missing \"vertices\" count"
        | Some n when n < 0 -> json_err "\"vertices\" must be non-negative"
        | Some n when n > Digraph.max_vertices ->
          json_err (Printf.sprintf "\"vertices\" must be at most %d" Digraph.max_vertices)
        | Some n -> (
          let arcs_json =
            match Jsonx.member "arcs" json with
            | None -> Ok []
            | Some a -> (
              match Jsonx.to_list a with
              | Some xs -> map_result (int_pair_of_json "arc") xs
              | None -> json_err "\"arcs\" must be an array")
          in
          match arcs_json with
          | Error e -> Error e
          | Ok arcs -> (
            let paths_json =
              match Jsonx.member "paths" json with
              | None -> Ok []
              | Some p -> (
                match Jsonx.to_list p with
                | Some xs -> map_result (int_list_of_json "path") xs
                | None -> json_err "\"paths\" must be an array")
            in
            match paths_json with
            | Error e -> Error e
            | Ok paths -> (
              let g = Digraph.create () in
              Digraph.add_vertices g n;
              let rec add_arcs = function
                | [] -> Ok ()
                | (u, v) :: rest -> (
                  match Digraph.add_arc g u v with
                  | _ -> add_arcs rest
                  | exception Invalid_argument msg ->
                    json_err (Printf.sprintf "arc [%d, %d]: %s" u v msg))
              in
              match add_arcs arcs with
              | Error e -> Error e
              | Ok () -> (
                (match Jsonx.member "labels" json with
                | None -> Ok ()
                | Some (Jsonx.Obj fields) ->
                  let rec set = function
                    | [] -> Ok ()
                    | (k, l) :: rest -> (
                      match (int_of_string_opt k, Jsonx.to_str l) with
                      | Some v, Some label when v >= 0 && v < n ->
                        Digraph.set_label g v label;
                        set rest
                      | _ -> json_err (Printf.sprintf "bad label entry %S" k))
                  in
                  set fields
                | Some _ -> json_err "\"labels\" must be an object")
                |> function
                | Error _ as e -> e
                | Ok () -> Instance.of_vertex_seqs g paths)))))))
  | Ok _ -> json_err "expected a JSON object"

(* --- files ----------------------------------------------------------------- *)

let write_file path inst =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc (to_string inst))

let read_file path =
  match
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error msg -> Error (Error.Io msg)
  | text ->
    (* Sniff the format: a JSON document starts with '{'. *)
    let rec first_printable i =
      if i >= String.length text then None
      else
        match text.[i] with
        | ' ' | '\t' | '\n' | '\r' -> first_printable (i + 1)
        | c -> Some c
    in
    if first_printable 0 = Some '{' then of_json text else of_string text
