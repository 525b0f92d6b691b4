type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* --- parsing -------------------------------------------------------------- *)

exception Fail of int * string (* byte position, message *)

type cursor = { text : string; mutable pos : int }

let fail cur msg = raise (Fail (cur.pos, msg))
let peek cur = if cur.pos < String.length cur.text then Some cur.text.[cur.pos] else None

let advance cur = cur.pos <- cur.pos + 1

let skip_ws cur =
  let n = String.length cur.text in
  while
    cur.pos < n
    && match cur.text.[cur.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    advance cur
  done

let expect cur c =
  match peek cur with
  | Some d when d = c -> advance cur
  | Some d -> fail cur (Printf.sprintf "expected %C, found %C" c d)
  | None -> fail cur (Printf.sprintf "expected %C, found end of input" c)

let literal cur word value =
  let n = String.length word in
  if
    cur.pos + n <= String.length cur.text
    && String.sub cur.text cur.pos n = word
  then begin
    cur.pos <- cur.pos + n;
    value
  end
  else fail cur (Printf.sprintf "expected %S" word)

(* Encode a Unicode code point as UTF-8 into the buffer. *)
let add_utf8 buf cp =
  if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end

let parse_string cur =
  expect cur '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek cur with
    | None -> fail cur "unterminated string"
    | Some '"' ->
      advance cur;
      Buffer.contents buf
    | Some '\\' -> (
      advance cur;
      match peek cur with
      | None -> fail cur "unterminated escape"
      | Some c ->
        advance cur;
        (match c with
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | '/' -> Buffer.add_char buf '/'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'n' -> Buffer.add_char buf '\n'
        | 'r' -> Buffer.add_char buf '\r'
        | 't' -> Buffer.add_char buf '\t'
        | 'u' ->
          if cur.pos + 4 > String.length cur.text then
            fail cur "truncated \\u escape";
          let hex = String.sub cur.text cur.pos 4 in
          (match int_of_string_opt ("0x" ^ hex) with
          | Some cp ->
            cur.pos <- cur.pos + 4;
            add_utf8 buf cp
          | None -> fail cur (Printf.sprintf "bad \\u escape %S" hex))
        | c -> fail cur (Printf.sprintf "bad escape \\%C" c));
        go ())
    | Some c when Char.code c < 0x20 -> fail cur "raw control character in string"
    | Some c ->
      advance cur;
      Buffer.add_char buf c;
      go ()
  in
  go ()

let parse_number cur =
  let start = cur.pos in
  let n = String.length cur.text in
  let is_float = ref false in
  while
    cur.pos < n
    &&
    match cur.text.[cur.pos] with
    | '0' .. '9' | '-' | '+' -> true
    | '.' | 'e' | 'E' ->
      is_float := true;
      true
    | _ -> false
  do
    advance cur
  done;
  let lexeme = String.sub cur.text start (cur.pos - start) in
  if !is_float then
    match float_of_string_opt lexeme with
    | Some f -> Float f
    | None -> fail cur (Printf.sprintf "bad number %S" lexeme)
  else
    match int_of_string_opt lexeme with
    | Some i -> Int i
    | None -> fail cur (Printf.sprintf "bad number %S" lexeme)

let rec parse_value cur =
  skip_ws cur;
  match peek cur with
  | None -> fail cur "unexpected end of input"
  | Some '{' ->
    advance cur;
    skip_ws cur;
    if peek cur = Some '}' then begin
      advance cur;
      Obj []
    end
    else begin
      let rec members acc =
        skip_ws cur;
        let key = parse_string cur in
        skip_ws cur;
        expect cur ':';
        let v = parse_value cur in
        skip_ws cur;
        match peek cur with
        | Some ',' ->
          advance cur;
          members ((key, v) :: acc)
        | Some '}' ->
          advance cur;
          List.rev ((key, v) :: acc)
        | _ -> fail cur "expected ',' or '}' in object"
      in
      Obj (members [])
    end
  | Some '[' ->
    advance cur;
    skip_ws cur;
    if peek cur = Some ']' then begin
      advance cur;
      Arr []
    end
    else begin
      let rec elements acc =
        let v = parse_value cur in
        skip_ws cur;
        match peek cur with
        | Some ',' ->
          advance cur;
          elements (v :: acc)
        | Some ']' ->
          advance cur;
          List.rev (v :: acc)
        | _ -> fail cur "expected ',' or ']' in array"
      in
      Arr (elements [])
    end
  | Some '"' -> Str (parse_string cur)
  | Some 't' -> literal cur "true" (Bool true)
  | Some 'f' -> literal cur "false" (Bool false)
  | Some 'n' -> literal cur "null" Null
  | Some ('-' | '0' .. '9') -> parse_number cur
  | Some c -> fail cur (Printf.sprintf "unexpected character %C" c)

let line_of text pos =
  let line = ref 1 in
  for i = 0 to min pos (String.length text - 1) - 1 do
    if text.[i] = '\n' then incr line
  done;
  !line

let parse text =
  let cur = { text; pos = 0 } in
  match
    let v = parse_value cur in
    skip_ws cur;
    (match peek cur with
    | Some c -> fail cur (Printf.sprintf "trailing garbage starting with %C" c)
    | None -> ());
    v
  with
  | v -> Ok v
  | exception Fail (pos, msg) ->
    Error (Printf.sprintf "line %d: %s" (line_of text pos) msg)

(* --- printing ------------------------------------------------------------- *)

let escape_into buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let to_string ?(pretty = false) v =
  let buf = Buffer.create 256 in
  let indent depth =
    if pretty then begin
      Buffer.add_char buf '\n';
      Buffer.add_string buf (String.make (2 * depth) ' ')
    end
  in
  let rec go depth = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f ->
      (* Short when that is exact, all digits otherwise: every finite
         float parses back to itself, and still as a float. *)
      let short = Printf.sprintf "%.12g" f in
      let exact = float_of_string_opt short = Some f in
      Buffer.add_string buf
        (if Float.is_integer f && (Float.abs f < 1e15 || not exact) then Printf.sprintf "%.1f" f
         else if exact then short
         else Printf.sprintf "%.17g" f)
    | Str s -> escape_into buf s
    | Arr [] -> Buffer.add_string buf "[]"
    | Arr xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_string buf (if pretty then "," else ", ");
          indent (depth + 1);
          go (depth + 1) x)
        xs;
      indent depth;
      Buffer.add_char buf ']'
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, x) ->
          if i > 0 then Buffer.add_string buf (if pretty then "," else ", ");
          indent (depth + 1);
          escape_into buf k;
          Buffer.add_string buf ": ";
          go (depth + 1) x)
        fields;
      indent depth;
      Buffer.add_char buf '}'
  in
  go 0 v;
  Buffer.contents buf

(* --- accessors ------------------------------------------------------------ *)

let member key = function Obj fields -> List.assoc_opt key fields | _ -> None
let to_int = function Int i -> Some i | _ -> None
let to_str = function Str s -> Some s | _ -> None
let to_bool = function Bool b -> Some b | _ -> None
let to_list = function Arr xs -> Some xs | _ -> None
