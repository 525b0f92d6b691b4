(* Dead-export lint: every value an interface exports has a caller outside
   its own module.

   Usage: lint_exports ALLOW LIB [DIR...].  The exports are the [val]s of
   every [.mli] under LIB; the callers are the [.ml] files under LIB and
   every DIR.  A value [x] of [lib/d/m.mli] counts as called when some
   caller other than [m.ml] names it:
   - qualified, as [M.x] or through a longer path ([Wl.M.x]); a value of
     a submodule, such as [Hdr.Slo.create], is named as [Slo.create];
   - through an alias: [module A = M] (or [= Lib.M]) then [A.x];
   - bare, in a file that opens [M] anywhere ([open M], [let open M in],
     [M.( ... )]), whatever the scope of the open.
   The scan skips comments, string and character literals, and otherwise
   errs toward "called": a name counts wherever it appears.  Operators and
   the values of a [module type] are not checked.  The test suite is not a
   caller.

   ALLOW has one entry per line, [M.x REASON: text], for a value that
   stays exported without a caller; blank lines and lines starting with
   [#] are skipped.  REASON is one of [reasons] below.  An entry whose
   value gained a caller or no longer exists is an error too, so the list
   cannot go stale.

   Prints a one-line summary and exits 0 when clean; otherwise lists
   every problem on stderr and exits 1.  A malformed entry exits 2. *)

(* facade: a documented convenience value of the Wl module;
   test-reference: a test checks another implementation against it;
   paper-claim: a test machine-checks a claim of the paper with it;
   contract: a test checks a contract DESIGN states through it. *)
let reasons = [ "facade"; "test-reference"; "paper-claim"; "contract" ]

(* --- a lexer that keeps identifier paths and drops comments and literals *)

let is_lower c = (c >= 'a' && c <= 'z') || c = '_'
let is_upper c = c >= 'A' && c <= 'Z'
let is_ident c = is_lower c || is_upper c || (c >= '0' && c <= '9') || c = '\''

type token = Path of string list | Sym of char

(* [Foo.Bar.baz] is one path; any other non-blank character is a [Sym]. *)
let tokens s =
  let n = String.length s in
  let out = ref [] in
  let rec skip_string i =
    if i >= n then n
    else match s.[i] with '"' -> i + 1 | '\\' -> skip_string (i + 2) | _ -> skip_string (i + 1)
  in
  let rec skip_comment depth i =
    if i >= n then n
    else if i + 1 < n && s.[i] = '(' && s.[i + 1] = '*' then skip_comment (depth + 1) (i + 2)
    else if i + 1 < n && s.[i] = '*' && s.[i + 1] = ')' then
      if depth = 1 then i + 2 else skip_comment (depth - 1) (i + 2)
    else if s.[i] = '"' then skip_comment depth (skip_string (i + 1))
    else skip_comment depth (i + 1)
  in
  (* the end of a quoted string [{id|...|id}] starting at [i], if it is one *)
  let quoted_string i =
    let j = ref (i + 1) in
    while !j < n && is_lower s.[!j] do incr j done;
    if !j < n && s.[!j] = '|' then begin
      let close = "|" ^ String.sub s (i + 1) (!j - i - 1) ^ "}" in
      let m = String.length close in
      let k = ref (!j + 1) in
      while !k + m <= n && String.sub s !k m <> close do incr k done;
      Some (min n (!k + m))
    end
    else None
  in
  let rec ident_end i = if i < n && is_ident s.[i] then ident_end (i + 1) else i in
  let rec path acc i =
    let j = ident_end i in
    let id = String.sub s i (j - i) in
    if is_upper s.[i] && j + 1 < n && s.[j] = '.' && (is_upper s.[j + 1] || is_lower s.[j + 1])
    then path (id :: acc) (j + 1)
    else (List.rev (id :: acc), j)
  in
  let rec go i =
    if i < n then
      match s.[i] with
      | '(' when i + 1 < n && s.[i + 1] = '*' -> go (skip_comment 1 (i + 2))
      | '"' -> go (skip_string (i + 1))
      | '{' -> go (Option.value (quoted_string i) ~default:(i + 1))
      | '\'' when i + 2 < n && s.[i + 1] <> '\\' && s.[i + 2] = '\'' -> go (i + 3)
      | '\'' when i + 3 < n && s.[i + 1] = '\\' -> (
        match String.index_from_opt s (i + 3) '\'' with Some j -> go (j + 1) | None -> ())
      | c when is_upper c || is_lower c ->
        let p, j = path [] i in
        out := Path p :: !out;
        go j
      | ' ' | '\t' | '\n' | '\r' -> go (i + 1)
      | c ->
        out := Sym c :: !out;
        go (i + 1)
  in
  go 0;
  List.rev !out

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Files under [dir] ending in [ext], skipping hidden directories (dune's
   object directories among them). *)
let rec files_under ext dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.concat_map (fun name ->
         let path = Filename.concat dir name in
         if name.[0] = '.' then []
         else if Sys.is_directory path then files_under ext path
         else if Filename.check_suffix name ext then [ path ]
         else [])

let last l = List.nth l (List.length l - 1)

(* --- callers: what each [.ml] file names --------------------------------- *)

type caller = {
  file : string;
  names : (string, unit) Hashtbl.t;  (** ["M.x"], aliases resolved *)
}

let scan_caller file =
  let toks = Array.of_list (tokens (read_file file)) in
  let n = Array.length toks in
  let tok i = if i < n then toks.(i) else Sym ' ' in
  let aliases = Hashtbl.create 16 in
  let opened = ref [] in
  let rec resolve_at depth m =
    match Hashtbl.find_opt aliases m with
    | Some m' when m' <> m && depth < 8 -> resolve_at (depth + 1) m'
    | _ -> m
  in
  let resolve = resolve_at 0 in
  (* the module a path [... ; M] denotes *)
  let module_of p = resolve (last p) in
  for i = 0 to n - 1 do
    match (tok i, tok (i + 1), tok (i + 2), tok (i + 3)) with
    | Path [ "module" ], Path [ a ], Sym '=', Path p when is_upper (last p).[0] ->
      Hashtbl.replace aliases a (last p)
    | Path [ "open" ], Sym '!', Path p, _ | Path [ "open" ], Path p, _, _ ->
      if is_upper (last p).[0] then opened := last p :: !opened
    | Path p, Sym '.', Sym ('(' | '[' | '{'), _ when is_upper (last p).[0] ->
      opened := last p :: !opened
    | _ -> ()
  done;
  let opened = List.sort_uniq compare (List.map resolve !opened) in
  let names = Hashtbl.create 256 in
  Array.iter
    (function
      | Path [ x ] when is_lower x.[0] ->
        List.iter (fun m -> Hashtbl.replace names (m ^ "." ^ x) ()) opened
      | Path p when is_lower (last p).[0] ->
        let rp = List.rev p in
        Hashtbl.replace names (module_of (List.rev (List.tl rp)) ^ "." ^ List.hd rp) ()
      | _ -> ())
    toks;
  { file; names }

(* --- exports: every [val] of every interface ----------------------------- *)

type export = {
  mli : string;
  owner : string;  (** the innermost module: [Slo] for [Hdr.Slo.create] *)
  qualified : string;  (** [Hdr.Slo.create] *)
  name : string;
}

let module_of_file f = String.capitalize_ascii (Filename.remove_extension (Filename.basename f))

let exports_of mli =
  let top = module_of_file mli in
  (* [stack]: the open [sig]/[object] blocks, each with the submodule it
     opens, [None] for a [module type] or an object *)
  let rec go stack pending acc = function
    | [] -> List.rev acc
    | Path [ "module" ] :: Path [ "type" ] :: rest -> go stack None acc rest
    | Path [ "module" ] :: Path [ m ] :: rest -> go stack (Some m) acc rest
    | Path [ ("sig" | "object") ] :: rest -> go (pending :: stack) None acc rest
    | Path [ "end" ] :: rest -> go (List.tl stack) None acc rest
    | Path [ "val" ] :: Path [ name ] :: rest when not (List.mem None stack) ->
      let subs = List.rev (List.filter_map Fun.id stack) in
      let e =
        {
          mli;
          owner = last (top :: subs);
          qualified = String.concat "." ((top :: subs) @ [ name ]);
          name;
        }
      in
      go stack None (e :: acc) rest
    | _ :: rest -> go stack pending acc rest
  in
  go [] None [] (tokens (read_file mli))

let callers_of all e =
  let own = Filename.remove_extension e.mli ^ ".ml" in
  List.filter (fun c -> c.file <> own && Hashtbl.mem c.names (e.owner ^ "." ^ e.name)) all

(* --- the allow-list ------------------------------------------------------ *)

let read_allow path =
  read_file path |> String.split_on_char '\n'
  |> List.mapi (fun i line -> (i + 1, String.trim line))
  |> List.filter (fun (_, l) -> l <> "" && l.[0] <> '#')
  |> List.map (fun (lineno, l) ->
         match String.split_on_char ' ' l |> List.filter (( <> ) "") with
         | name :: reason :: _ :: _
           when List.exists (fun r -> reason = r ^ ":") reasons ->
           (name, lineno)
         | _ ->
           Printf.eprintf "%s:%d: expected `Module.value REASON: text`, REASON one of %s\n" path
             lineno (String.concat ", " reasons);
           exit 2)

let () =
  match List.tl (Array.to_list Sys.argv) with
  | allow :: lib :: dirs ->
    let all = List.map scan_caller (List.concat_map (files_under ".ml") (lib :: dirs)) in
    let exports = List.concat_map exports_of (files_under ".mli" lib) in
    let allowed = read_allow allow in
    let problems = ref 0 in
    let report fmt =
      incr problems;
      Printf.eprintf fmt
    in
    let own e = Filename.basename (Filename.remove_extension e.mli ^ ".ml") in
    List.iter
      (fun e ->
        if callers_of all e = [] && not (List.mem_assoc e.qualified allowed) then
          report "%s: %s has no caller outside %s and the tests\n" e.mli e.qualified (own e))
      exports;
    List.iter
      (fun (q, lineno) ->
        match List.find_opt (fun e -> e.qualified = q) exports with
        | None -> report "%s:%d: %s is no longer exported\n" allow lineno q
        | Some e -> (
          match callers_of all e with
          | [] -> ()
          | c :: _ -> report "%s:%d: %s is called (in %s); drop its entry\n" allow lineno q c.file))
      allowed;
    if !problems = 0 then
      Printf.printf "lint_exports: %d exported values, %d allowed\n" (List.length exports)
        (List.length allowed)
    else begin
      Printf.eprintf
        "lint_exports: %d problem(s) among %d exported values.  Delete an uncalled value, \
         drop it from its interface if only its own module calls it, or list it in %s with \
         its reason.\n"
        !problems (List.length exports) (Filename.basename allow);
      exit 1
    end
  | _ ->
    prerr_endline "usage: lint_exports ALLOW LIB [DIR...]";
    exit 2
