open Wl_core
module Jsonx = Wl_json.Jsonx
module Scan = Wl_util.Scan

type t = Engine.op list

let current_version = 1

let to_string ops =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "wlops %d\n" current_version);
  List.iter
    (fun op ->
      (match op with
      | Engine.Add_path verts ->
        Buffer.add_string buf "path";
        List.iter (fun v -> Buffer.add_string buf (Printf.sprintf " %d" v)) verts
      | Engine.Remove_path pid -> Buffer.add_string buf (Printf.sprintf "remove %d" pid)
      | Engine.Add_arc (u, v) -> Buffer.add_string buf (Printf.sprintf "arc %d %d" u v));
      Buffer.add_char buf '\n')
    ops;
  Buffer.contents buf

let of_string text =
  let sc = Scan.of_string text in
  let err msg = Error (Error.Parse { line = Scan.line sc; msg }) in
  let not_int i = err (Printf.sprintf "not an integer: %S" (Scan.word sc i)) in
  let rec go acc =
    if not (Scan.next sc) then Ok (List.rev acc)
    else
      let n = Scan.count sc in
      if Scan.is sc 0 "path" then
        match Scan.ints sc 1 with
        | Error i -> not_int i
        | Ok vs -> go (Engine.Add_path vs :: acc)
      else if Scan.is sc 0 "remove" && n = 2 then
        match Scan.int sc 1 with
        | None -> not_int 1
        | Some pid -> go (Engine.Remove_path pid :: acc)
      else if Scan.is sc 0 "arc" && n = 3 then
        match (Scan.int sc 1, Scan.int sc 2) with
        | None, _ -> not_int 1
        | _, None -> not_int 2
        | Some u, Some v -> go (Engine.Add_arc (u, v) :: acc)
      else if Scan.is sc 0 "wlops" && n = 2 then
        match Scan.int sc 1 with
        | None -> not_int 1
        | Some v ->
          if v < 1 || v > current_version then Error (Error.Unsupported_version v)
          else go acc
      else err (Printf.sprintf "unknown op %S" (Scan.word sc 0))
  in
  go []

let to_json ?pretty ops =
  let op_json = function
    | Engine.Add_path verts ->
      Jsonx.Obj
        [
          ("op", Jsonx.Str "add_path");
          ("vertices", Jsonx.Arr (List.map (fun v -> Jsonx.Int v) verts));
        ]
    | Engine.Remove_path pid ->
      Jsonx.Obj [ ("op", Jsonx.Str "remove_path"); ("id", Jsonx.Int pid) ]
    | Engine.Add_arc (u, v) ->
      Jsonx.Obj
        [ ("op", Jsonx.Str "add_arc"); ("from", Jsonx.Int u); ("to", Jsonx.Int v) ]
  in
  Jsonx.to_string ?pretty
    (Jsonx.Obj
       [
         ("format", Jsonx.Str "wl-ops");
         ("version", Jsonx.Int current_version);
         ("ops", Jsonx.Arr (List.map op_json ops));
       ])

let json_err msg = Error (Error.Parse { line = 0; msg })

let of_json text =
  match Jsonx.parse text with
  | Error msg -> json_err msg
  | Ok (Jsonx.Obj _ as json) -> (
    (match Jsonx.member "format" json with
    | Some (Jsonx.Str "wl-ops") | None -> Ok ()
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
        match Option.bind (Jsonx.member "ops" json) Jsonx.to_list with
        | None -> json_err "missing \"ops\" array"
        | Some ops ->
          let int_field j name =
            match Option.bind (Jsonx.member name j) Jsonx.to_int with
            | Some v -> Ok v
            | None -> json_err (Printf.sprintf "op needs integer %S" name)
          in
          let parse_op j =
            match Option.bind (Jsonx.member "op" j) Jsonx.to_str with
            | Some "add_path" -> (
              match Option.bind (Jsonx.member "vertices" j) Jsonx.to_list with
              | None -> json_err "add_path needs a \"vertices\" array"
              | Some vs ->
                let rec go acc = function
                  | [] -> Ok (Engine.Add_path (List.rev acc))
                  | x :: rest -> (
                    match Jsonx.to_int x with
                    | Some v -> go (v :: acc) rest
                    | None -> json_err "\"vertices\" must be integers")
                in
                go [] vs)
            | Some "remove_path" ->
              Result.map (fun pid -> Engine.Remove_path pid) (int_field j "id")
            | Some "add_arc" -> (
              match (int_field j "from", int_field j "to") with
              | Ok u, Ok v -> Ok (Engine.Add_arc (u, v))
              | (Error _ as e), _ | _, (Error _ as e) -> e)
            | Some other -> json_err (Printf.sprintf "unknown op %S" other)
            | None -> json_err "op entry needs an \"op\" string"
          in
          let rec go acc = function
            | [] -> Ok (List.rev acc)
            | j :: rest -> (
              match parse_op j with
              | Ok op -> go (op :: acc) rest
              | Error _ as e -> e)
          in
          go [] ops)))
  | Ok _ -> json_err "expected a JSON object"

let read_file path =
  match
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error msg -> Error (Error.Io msg)
  | text ->
    let rec first_printable i =
      if i >= String.length text then None
      else
        match text.[i] with
        | ' ' | '\t' | '\n' | '\r' -> first_printable (i + 1)
        | c -> Some c
    in
    if first_printable 0 = Some '{' then of_json text else of_string text

let write_file path ops =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string ops))
