open Wl_digraph
module Dag = Wl_dag.Dag
module Jsonx = Wl_json.Jsonx

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

type parse_state = {
  mutable version : int option;
  mutable graph : Digraph.t option;
  mutable paths_rev : (int * int list) list; (* line, vertex sequence *)
}

let of_string text =
  let st = { version = None; graph = None; paths_rev = [] } in
  let err lineno msg = Error (Error.Parse { line = lineno; msg }) in
  let lines = String.split_on_char '\n' text in
  let parse_int lineno s =
    match int_of_string_opt s with
    | Some v -> Ok v
    | None -> err lineno (Printf.sprintf "not an integer: %S" s)
  in
  let finish () =
    match st.graph with
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
        build [] (List.rev st.paths_rev))
  in
  let rec go lineno = function
    | [] -> finish ()
    | line :: rest -> (
      let line =
        match String.index_opt line '#' with
        | Some i -> String.sub line 0 i
        | None -> line
      in
      let words =
        String.split_on_char ' ' (String.trim line)
        |> List.filter (fun w -> w <> "")
      in
      match words with
      | [] -> go (lineno + 1) rest
      | "wl" :: [ v ] -> (
        match parse_int lineno v with
        | Error e -> Error e
        | Ok v ->
          if st.version <> None then err lineno "duplicate 'wl' header"
          else if st.graph <> None then err lineno "'wl' header must come before 'dag'"
          else if v < 1 || v > current_version then Error (Error.Unsupported_version v)
          else begin
            st.version <- Some v;
            go (lineno + 1) rest
          end)
      | "dag" :: [ n ] -> (
        match parse_int lineno n with
        | Error e -> Error e
        | Ok n ->
          if st.graph <> None then err lineno "duplicate 'dag' header"
          else begin
            let g = Digraph.create () in
            Digraph.add_vertices g n;
            st.graph <- Some g;
            go (lineno + 1) rest
          end)
      | "vlabel" :: i :: name :: [] -> (
        match (st.graph, parse_int lineno i) with
        | None, _ -> err lineno "'vlabel' before 'dag'"
        | _, Error e -> Error e
        | Some g, Ok i ->
          if i < 0 || i >= Digraph.n_vertices g then err lineno "vertex out of range"
          else begin
            Digraph.set_label g i name;
            go (lineno + 1) rest
          end)
      | "arc" :: u :: [ v ] -> (
        match (st.graph, parse_int lineno u, parse_int lineno v) with
        | None, _, _ -> err lineno "'arc' before 'dag'"
        | _, Error e, _ | _, _, Error e -> Error e
        | Some g, Ok u, Ok v -> (
          match Digraph.add_arc g u v with
          | _ -> go (lineno + 1) rest
          | exception Invalid_argument msg -> err lineno msg))
      | "path" :: verts -> (
        if st.graph = None then err lineno "'path' before 'dag'"
        else
          let rec ints acc = function
            | [] -> Ok (List.rev acc)
            | w :: ws -> (
              match parse_int lineno w with
              | Ok v -> ints (v :: acc) ws
              | Error e -> Error e)
          in
          match ints [] verts with
          | Error e -> Error e
          | Ok vs ->
            st.paths_rev <- (lineno, vs) :: st.paths_rev;
            go (lineno + 1) rest)
      | word :: _ -> err lineno (Printf.sprintf "unknown directive %S" word))
  in
  go 1 lines

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

let write_file ?version path inst =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string ?version inst))

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
