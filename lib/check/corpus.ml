type entry = {
  check : string;
  label : string;
  wl_file : string;
  subject : Subject.t;
}

let parse_name file =
  (* <check>.<label>.wl — the check is everything before the first dot. *)
  match String.index_opt file '.' with
  | Some i when Filename.check_suffix file ".wl" ->
    let label = String.sub file (i + 1) (String.length file - i - 4) in
    if label = "" then None else Some (String.sub file 0 i, label)
  | _ -> None

let load dir =
  match Sys.readdir dir with
  | exception Sys_error msg -> Error msg
  | files ->
    Array.sort compare files;
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | file :: rest ->
        if not (Filename.check_suffix file ".wl") then go acc rest
        else begin
          match parse_name file with
          | None ->
            Error
              (Printf.sprintf "%s: corpus entries are named <check>.<label>.wl"
                 file)
          | Some (check, label) -> (
            let wl_file = Filename.concat dir file in
            match Subject.read ~wl:wl_file with
            | Error e ->
              Error (Printf.sprintf "%s: %s" file (Wl_core.Error.to_string e))
            | Ok subject ->
              go ({ check; label; wl_file; subject } :: acc) rest)
        end
    in
    go [] (Array.to_list files)

let replay entry =
  match Oracle.find entry.check with
  | None -> Some (Printf.sprintf "unknown check %S" entry.check)
  | Some oracle -> (
    match oracle.Oracle.check entry.subject with
    | r -> r
    | exception e -> Some (Printexc.to_string e))

let add ~dir ~check ~label subject =
  Subject.write ~prefix:(Filename.concat dir (check ^ "." ^ label)) subject
