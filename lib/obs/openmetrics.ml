(* OpenMetrics text rendering + a strict-enough standalone parser.

   Everything here is cold reporting code: called once per scrape/dump,
   free to allocate.  The parser deliberately shares nothing with
   Wl_json — OpenMetrics is line-oriented — but follows the same
   dependency-free, total style. *)

type stats = { families : int; samples : int }

(* --- rendering -------------------------------------------------------------- *)

let sanitize name =
  let buf = Buffer.create (String.length name + 4) in
  if not (String.length name >= 3 && String.sub name 0 3 = "wl_") then
    Buffer.add_string buf "wl_";
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> Buffer.add_char buf c
      | _ -> Buffer.add_char buf '_')
    name;
  Buffer.contents buf

(* Label-value escaping: backslash, double quote, newline. *)
let escape_label v =
  let buf = Buffer.create (String.length v) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    v;
  Buffer.contents buf

let add_family buf ~name ~help ~typ body =
  Printf.bprintf buf "# HELP %s %s\n" name (escape_label help);
  Printf.bprintf buf "# TYPE %s %s\n" name typ;
  body buf

let add_counter buf name help v =
  add_family buf ~name ~help ~typ:"counter" (fun buf ->
      Printf.bprintf buf "%s_total %d\n" name v)

let add_gauge buf name help v =
  add_family buf ~name ~help ~typ:"gauge" (fun buf ->
      Printf.bprintf buf "%s %.6g\n" name v)

let add_summary ?exemplar buf name help (s : Hdr.snapshot) =
  add_family buf ~name ~help ~typ:"summary" (fun buf ->
      Printf.bprintf buf "%s{quantile=\"0.5\"} %d\n" name s.Hdr.p50;
      Printf.bprintf buf "%s{quantile=\"0.9\"} %d\n" name s.Hdr.p90;
      Printf.bprintf buf "%s{quantile=\"0.99\"} %d\n" name s.Hdr.p99;
      Printf.bprintf buf "%s{quantile=\"0.999\"} %d\n" name s.Hdr.p999;
      Printf.bprintf buf "%s_sum %d\n" name s.Hdr.sum;
      Printf.bprintf buf "%s_count %d" name s.Hdr.count;
      (* OpenMetrics exemplar syntax: the worst traced sample, linking
         the tail figure to a concrete distributed trace. *)
      (match exemplar with
      | Some (v, trace) when trace <> 0 ->
        Printf.bprintf buf " # {trace_id=\"%x\"} %d" trace v
      | _ -> ());
      Buffer.add_char buf '\n')

let add_labeled_gauge buf name help rows =
  add_family buf ~name ~help ~typ:"gauge" (fun buf ->
      List.iter
        (fun (labels, v) ->
          if labels = [] then Printf.bprintf buf "%s %.6g\n" name v
          else begin
            Printf.bprintf buf "%s{" name;
            List.iteri
              (fun i (k, lv) ->
                if i > 0 then Buffer.add_char buf ',';
                Printf.bprintf buf "%s=\"%s\"" k (escape_label lv))
              labels;
            Printf.bprintf buf "} %.6g\n" v
          end)
        rows)

let render ?(gauges = []) ?(labeled = []) ?(latencies = []) ?(exemplars = [])
    snapshot =
  let items =
    List.map (fun (raw, inst) -> (sanitize raw, raw, `Inst inst)) snapshot
    @ List.map (fun (raw, v) -> (sanitize raw, raw, `Gauge v)) gauges
    @ List.map (fun (raw, rows) -> (sanitize raw, raw, `Labeled rows)) labeled
    @ List.map
        (fun (raw, s) -> (sanitize raw, raw, `Inst (Metrics.Histogram s)))
        latencies
  in
  let items =
    List.sort (fun (a, _, _) (b, _, _) -> String.compare a b) items
  in
  let buf = Buffer.create 4096 in
  List.iter
    (fun (name, raw, v) ->
      let exemplar = List.assoc_opt raw exemplars in
      match v with
      | `Inst (Metrics.Counter c) -> add_counter buf name raw c
      | `Inst (Metrics.Histogram s) -> add_summary ?exemplar buf name raw s
      | `Gauge g -> add_gauge buf name raw g
      | `Labeled rows -> add_labeled_gauge buf name raw rows)
    items;
  Buffer.add_string buf "# EOF\n";
  Buffer.contents buf

(* --- validation ------------------------------------------------------------- *)

let is_name_char c =
  match c with
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true
  | _ -> false

let valid_name s =
  String.length s > 0
  && (match s.[0] with '0' .. '9' -> false | c -> is_name_char c)
  && String.for_all is_name_char s

exception Bad of string

let split_sample line =
  (* name[{labels}] value [timestamp | # {labels} value [timestamp]] *)
  let n = String.length line in
  let i = ref 0 in
  while !i < n && is_name_char line.[!i] do
    incr i
  done;
  let name = String.sub line 0 !i in
  if not (valid_name name) then raise (Bad "invalid metric name");
  let parse_label_set () =
    (* [!i] is at '{' on entry, past '}' on exit *)
    incr i;
    let fin = ref false in
    while not !fin do
      if !i >= n then raise (Bad "unterminated label set");
      if line.[!i] = '}' then begin
        incr i;
        fin := true
      end
      else begin
        (* label name *)
        let s = !i in
        while !i < n && is_name_char line.[!i] do
          incr i
        done;
        if !i = s then raise (Bad "empty label name");
        if !i >= n || line.[!i] <> '=' then raise (Bad "label without =");
        incr i;
        if !i >= n || line.[!i] <> '"' then raise (Bad "unquoted label value");
        incr i;
        let closed = ref false in
        while not !closed do
          if !i >= n then raise (Bad "unterminated label value");
          (match line.[!i] with
          | '\\' -> incr i (* skip escaped char *)
          | '"' -> closed := true
          | _ -> ());
          incr i
        done;
        if !i < n && line.[!i] = ',' then incr i
      end
    done
  in
  let parse_float_token what =
    let s = !i in
    while !i < n && line.[!i] <> ' ' do
      incr i
    done;
    let tok = String.sub line s (!i - s) in
    match float_of_string_opt tok with
    | Some _ -> ()
    | None -> raise (Bad (Printf.sprintf "unparseable %s %s" what tok))
  in
  if !i < n && line.[!i] = '{' then parse_label_set ();
  if !i >= n || line.[!i] <> ' ' then raise (Bad "missing value");
  incr i;
  parse_float_token "sample value";
  if !i < n then begin
    incr i (* the space after the value *);
    if !i < n && line.[!i] = '#' then begin
      (* OpenMetrics exemplar: "# {labels} value [timestamp]" *)
      incr i;
      if !i >= n || line.[!i] <> ' ' then raise (Bad "malformed exemplar");
      incr i;
      if !i >= n || line.[!i] <> '{' then raise (Bad "exemplar without labels");
      parse_label_set ();
      if !i >= n || line.[!i] <> ' ' then raise (Bad "exemplar without value");
      incr i;
      parse_float_token "exemplar value";
      if !i < n then begin
        incr i;
        if !i >= n then raise (Bad "trailing space after exemplar");
        parse_float_token "exemplar timestamp";
        if !i <> n then raise (Bad "garbage after exemplar timestamp")
      end
    end
    else begin
      if !i >= n then raise (Bad "trailing space after value");
      parse_float_token "timestamp";
      if !i <> n then raise (Bad "garbage after timestamp")
    end
  end;
  name

let suffixes = [ "_total"; "_bucket"; "_sum"; "_count"; "_created" ]

let strip_suffix name suf =
  let n = String.length name and m = String.length suf in
  if n > m && String.sub name (n - m) m = suf then
    Some (String.sub name 0 (n - m))
  else None

let validate doc =
  let lines = String.split_on_char '\n' doc in
  let types : (string, string) Hashtbl.t = Hashtbl.create 32 in
  let sampled : (string, unit) Hashtbl.t = Hashtbl.create 32 in
  let samples = ref 0 in
  let saw_eof = ref false in
  let err lineno msg = Printf.sprintf "line %d: %s" lineno msg in
  let rec go lineno = function
    | [] -> if !saw_eof then Ok () else Error "missing # EOF terminator"
    | line :: rest ->
      if !saw_eof then
        if line = "" && rest = [] then Ok ()
        else Error (err lineno "content after # EOF")
      else if line = "" then Error (err lineno "blank line")
      else if line = "# EOF" then begin
        saw_eof := true;
        go (lineno + 1) rest
      end
      else if String.length line > 0 && line.[0] = '#' then begin
        match String.split_on_char ' ' line with
        | "#" :: kw :: name :: _ when kw = "HELP" || kw = "UNIT" ->
          if valid_name name then go (lineno + 1) rest
          else Error (err lineno ("bad metric name in " ^ kw))
        | "#" :: "TYPE" :: name :: [ typ ] ->
          if not (valid_name name) then
            Error (err lineno "bad metric name in TYPE")
          else if
            not
              (List.mem typ
                 [ "counter"; "gauge"; "histogram"; "summary"; "unknown"; "info" ])
          then Error (err lineno ("unknown type " ^ typ))
          else if Hashtbl.mem types name then
            Error (err lineno ("duplicate TYPE for " ^ name))
          else if Hashtbl.mem sampled name then
            Error (err lineno ("TYPE after samples for " ^ name))
          else begin
            Hashtbl.add types name typ;
            go (lineno + 1) rest
          end
        | _ -> Error (err lineno "malformed comment line")
      end
      else begin
        match split_sample line with
        | exception Bad msg -> Error (err lineno msg)
        | name -> (
          let family =
            match
              List.find_map
                (fun suf ->
                  match strip_suffix name suf with
                  | Some base when Hashtbl.mem types base -> Some (base, suf)
                  | _ -> None)
                suffixes
            with
            | Some (base, suf) -> Some (base, suf)
            | None -> if Hashtbl.mem types name then Some (name, "") else None
          in
          match family with
          | None -> Error (err lineno ("sample without # TYPE: " ^ name))
          | Some (base, suf) ->
            let typ = Hashtbl.find types base in
            let legal =
              match typ with
              | "counter" -> suf = "_total" || suf = "_created"
              | "histogram" -> suf = "_bucket" || suf = "_sum" || suf = "_count"
              | "summary" -> suf = "" || suf = "_sum" || suf = "_count"
              | _ -> suf = ""
            in
            if not legal then
              Error
                (err lineno
                   (Printf.sprintf "sample %s illegal for %s family %s" name
                      typ base))
            else begin
              Hashtbl.replace sampled base ();
              incr samples;
              go (lineno + 1) rest
            end)
      end
  in
  match go 1 lines with
  | Error _ as e -> e
  | Ok () -> Ok { families = Hashtbl.length types; samples = !samples }
