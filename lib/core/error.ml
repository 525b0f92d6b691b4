type t =
  | Parse of { line : int; msg : string }
  | Invalid_path of string
  | Cyclic of string
  | Bad_index of { what : string; index : int }
  | Invalid_op of string
  | Precondition of string
  | Unsupported_version of int
  | Io of string

exception Error of t

let to_string = function
  | Parse { line; msg } ->
    if line <= 0 then msg else Printf.sprintf "line %d: %s" line msg
  | Invalid_path msg -> msg
  | Cyclic msg -> msg
  | Bad_index { what; index } -> Printf.sprintf "%s: no such index %d" what index
  | Invalid_op msg -> msg
  | Precondition msg -> msg
  | Unsupported_version v -> Printf.sprintf "unsupported format version %d" v
  | Io msg -> msg

(* Stable sysexits-style codes; [distinct] (tested) so scripts can dispatch
   on the exit status of the CLI alone. *)
let exit_code = function
  | Parse _ -> 65 (* EX_DATAERR *)
  | Cyclic _ -> 66
  | Invalid_path _ -> 67
  | Bad_index _ -> 68
  | Invalid_op _ -> 69
  | Precondition _ -> 70 (* EX_SOFTWARE *)
  | Unsupported_version _ -> 71
  | Io _ -> 74 (* EX_IOERR *)

(* The wire code IS the exit code: `wld` error frames, the CLI process
   status and the library constructor tags are one namespace, so the three
   can never disagree (test_errors pins the round-trip per constructor). *)
let to_code = exit_code

(* Inverse of [to_code] over rendered messages: reconstruct the constructor
   from a wire code plus its [to_string] rendering.  Structured payloads
   (Parse line numbers, Bad_index indices, version numbers) are recovered
   by parsing the stable rendering back; a message that never came from
   [to_string] still lands in the right constructor, just with the whole
   string as its payload. *)
let of_code code msg =
  let scan_suffix_int ~prefix s =
    (* "<what>: no such index %d" — split on the *last* occurrence. *)
    let plen = String.length prefix in
    let rec find i =
      if i < 0 then None
      else if i + plen <= String.length s && String.sub s i plen = prefix then
        let tail = String.sub s (i + plen) (String.length s - i - plen) in
        Option.map (fun idx -> (String.sub s 0 i, idx)) (int_of_string_opt tail)
      else find (i - 1)
    in
    find (String.length s - plen)
  in
  match code with
  | 65 ->
    let parse =
      if String.length msg > 5 && String.sub msg 0 5 = "line " then
        match String.index_opt msg ':' with
        | Some colon
          when colon + 2 <= String.length msg
               && int_of_string_opt (String.sub msg 5 (colon - 5)) <> None ->
          let line = int_of_string (String.sub msg 5 (colon - 5)) in
          let rest = String.sub msg (colon + 2) (String.length msg - colon - 2) in
          Parse { line; msg = rest }
        | _ -> Parse { line = 0; msg }
      else Parse { line = 0; msg }
    in
    Some parse
  | 66 -> Some (Cyclic msg)
  | 67 -> Some (Invalid_path msg)
  | 68 -> (
    match scan_suffix_int ~prefix:": no such index " msg with
    | Some (what, index) -> Some (Bad_index { what; index })
    | None -> Some (Bad_index { what = msg; index = -1 }))
  | 69 -> Some (Invalid_op msg)
  | 70 -> Some (Precondition msg)
  | 71 ->
    let prefix = "unsupported format version " in
    let plen = String.length prefix in
    let v =
      if String.length msg > plen && String.sub msg 0 plen = prefix then
        int_of_string_opt (String.sub msg plen (String.length msg - plen))
      else None
    in
    Some (Unsupported_version (Option.value v ~default:(-1)))
  | 74 -> Some (Io msg)
  | _ -> None

let raise_error e = raise (Error e)
