open Wl_core
module Engine = Wl_engine.Engine
module Script = Wl_engine.Script
module Jsonx = Wl_json.Jsonx
module Ctx = Wl_obs.Ctx

let version = 1

let tenant_ok t =
  let n = String.length t in
  n > 0 && n <= 128
  && String.for_all
       (function 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false)
       t

let checked t = if tenant_ok t then t else invalid_arg ("Proto: invalid tenant id " ^ t)

type req =
  | Hello of int
  | Ping
  | Shutdown
  | Open of { tenant : string; instance : Instance.t }
  | Add_path of { tenant : string; vertices : int list }
  | Remove_path of { tenant : string; id : int }
  | Add_arc of { tenant : string; tail : int; head : int }
  | Submit of { tenant : string; ops : Engine.op list }
  | Report of { tenant : string }
  | Pi of { tenant : string }
  | Color_of of { tenant : string; id : int }
  | Stats of { tenant : string }
  | Health of { tenant : string }
  | Snapshot of { tenant : string }
  | Evict of { tenant : string }
  (* Daemon-wide introspection (no tenant): answered from shard-local
     observability state without entering any engine hot path. *)
  | Dstats
  | Dhealth
  | Trace_dump of { last : int }

type report = { n_wavelengths : int; pi : int; optimal : bool; method_name : string }

type health = {
  healthy : bool; add_p50 : int; add_p99 : int; remove_p50 : int; remove_p99 : int;
  warm_hit_recent : float; warm_hit_lifetime : float; fallback_streak : int;
}

type outcome = O_path of int | O_removed of int | O_arc of int

(* Shard-merged latency rollup: the [Hdr.merge_into] figures across every
   shard's histograms, plus the daemon-wide exemplar ([l_ex_trace = 0]
   when no traced sample was seen). *)
type lat_rollup = {
  l_count : int; l_p50 : int; l_p90 : int; l_p99 : int; l_p999 : int; l_max : int;
  l_ex_ns : int; l_ex_trace : int;
}

type tenant_row = {
  r_tenant : string; r_shard : int; r_paths : int; r_pi : int; r_ops : int; r_add_p50 : int;
  r_add_p99 : int; r_healthy : bool;
}

type dstats = {
  d_shards : int; d_sessions : int; d_add : lat_rollup; d_remove : lat_rollup;
  d_tenants : tenant_row list;
}

type dhealth = { dh_healthy : bool; dh_sessions : int; dh_unhealthy : string list }

type resp =
  | R_hello of int
  | R_pong
  | R_bye
  | R_open of report
  | R_path of int
  | R_removed of int
  | R_arc of int
  | R_report of report
  | R_pi of int
  | R_color of int
  | R_stats of Engine.stats
  | R_health of health
  | R_outcomes of { outcomes : (outcome, Error.t) result array; after : report }
  | R_snapshot of Instance.t
  | R_evicted
  | R_dstats of dstats
  | R_dhealth of dhealth
  | R_trace of string  (** a complete Chrome trace document *)

type reply = (resp, Error.t) result

let report_of_solver (r : Solver.report) =
  { n_wavelengths = r.Solver.n_wavelengths; pi = r.Solver.pi; optimal = r.Solver.optimal;
    method_name = Solver.method_name r.Solver.method_used }

let health_of_engine (h : Engine.health) =
  let add = h.Engine.add_latency and remove = h.Engine.remove_latency in
  { healthy = h.Engine.healthy; add_p50 = add.Wl_obs.Hdr.p50; add_p99 = add.Wl_obs.Hdr.p99;
    remove_p50 = remove.Wl_obs.Hdr.p50; remove_p99 = remove.Wl_obs.Hdr.p99;
    warm_hit_recent = h.Engine.warm_hit_recent; warm_hit_lifetime = h.Engine.warm_hit_lifetime;
    fallback_streak = h.Engine.fallback_streak }

let outcome_of_engine = function
  | Engine.Path_added id -> O_path id
  | Engine.Path_removed id -> O_removed id
  | Engine.Arc_added a -> O_arc a

(* --- message description ------------------------------------------------------ *)

(* A message is a tag plus an ordered field list; a field type says how one
   value is laid out in each encoding.  In text a field is space-separated
   tokens on the head line ([Rows] and [Body] also add lines after it); in
   JSON it is a named member, [Rows] members last.  A field named [""]
   splices its object's members into the enclosing JSON object. *)
module F = struct
  type _ ty =
    | Int : int ty
    | Hex : int ty  (** hex token in text *)
    | Bool : bool ty
    | Float : float ty  (** exact: [%.17g] in text *)
    | Word : string ty  (** one token, unchecked *)
    | Tenant : string ty  (** {!tenant_ok}-checked both ways *)
    | Msg : string ty  (** free text: the raw rest of the head line *)
    | Ints : int list ty  (** inline: the rest of the head line *)
    | Tenants : string list ty  (** count, then the ids *)
    | Rec : 'r case -> 'r ty  (** nested record; its tag is unused *)
    | Rows : string * 'a ty -> 'a list ty  (** count in the head, one tagged line each *)
    | Body : 'a body -> 'a ty  (** verbatim text body / embedded JSON value *)
    | Union : 'm union -> 'm ty
    | Err : Error.t ty  (** wire code, then the [errors] union *)

  and _ t = [] : unit t | ( :: ) : (string * 'a ty) * 'b t -> ('a * 'b) t

  and 'm case =
    | Case : { tag : string; fields : 'a t; inj : 'a -> 'm; proj : 'm -> 'a option } -> 'm case

  (* [key = Some k]: JSON carries the tag as member [k] beside the fields.
     [key = None]: JSON carries no tag; its first field's name tells the
     case (see [keyed]). *)
  and 'm union = { key : string option; cases : 'm case list }

  and 'a body = {
    to_text : 'a -> string; of_text : string -> ('a, Error.t) result;
    to_json : 'a -> Jsonx.t; of_json : Jsonx.t -> ('a, Error.t) result;
  }
end

let case tag fields inj proj = F.Case { tag; fields; inj; proj }

let one tag name ty inj proj =
  case tag F.[ (name, ty) ] (fun (x, ()) -> inj x) (fun m -> Option.map (fun x -> (x, ())) (proj m))

let keyed tag ty inj proj = one tag tag ty inj proj
let const tag v = case tag F.[] (fun () -> v) (fun m -> if m == v then Some () else None)
let record fields inj proj = F.Rec (case "" fields inj (fun r -> Some (proj r)))
let tag_of (F.Case c) = c.tag
let proto_error msg = Error.Parse { line = 0; msg }

(* Instances and op scripts embed their own text and JSON formats. *)
let reparse s = match Jsonx.parse s with Ok j -> j | Error m -> invalid_arg ("Proto: JSON: " ^ m)
let to_json_ops ops = Option.get (Jsonx.member "ops" (reparse (Script.to_json ops)))
let wl_ops j = Jsonx.[ "format", Str "wl-ops"; "version", Int Script.current_version; "ops", j ]
let of_json_ops j = Script.of_json (Jsonx.to_string (Jsonx.Obj (wl_ops j)))
let of_json_instance j = Serial.of_json (Jsonx.to_string j)
let to_json_instance i = reparse (Serial.to_json i)
let body to_text of_text to_json of_json = F.Body { to_text; of_text; to_json; of_json }
let instance = body Serial.to_string Serial.of_string to_json_instance of_json_instance
let ops = body Script.to_string Script.of_string to_json_ops of_json_ops

let doc_of_json = function Jsonx.Str d -> Ok d | _ -> Error (proto_error "doc: not a string")
let doc = body Fun.id Result.ok (fun d -> Jsonx.Str d) doc_of_json

(* --- the message table ---------------------------------------------------------- *)

(* "err CODE CTOR ARGS..." — the wire code leads so code-only clients can
   dispatch without knowing the constructor grammar; a message goes last so
   it may contain spaces. *)
let errors =
  let msg tag inj proj = one tag "msg" F.Msg inj proj in
  { F.key = Some "ctor";
    cases = [
        case "parse" F.[ ("line", Int); ("msg", Msg) ]
          (fun (line, (msg, ())) -> Error.Parse { line; msg })
          (function Error.Parse { line; msg } -> Some (line, (msg, ())) | _ -> None);
        msg "invalid_path" (fun m -> Error.Invalid_path m)
          (function Error.Invalid_path m -> Some m | _ -> None);
        msg "cyclic" (fun m -> Error.Cyclic m) (function Error.Cyclic m -> Some m | _ -> None);
        case "bad_index" F.[ ("index", Int); ("what", Msg) ]
          (fun (index, (what, ())) -> Error.Bad_index { what; index })
          (function Error.Bad_index { what; index } -> Some (index, (what, ())) | _ -> None);
        msg "invalid_op" (fun m -> Error.Invalid_op m)
          (function Error.Invalid_op m -> Some m | _ -> None);
        msg "precondition" (fun m -> Error.Precondition m)
          (function Error.Precondition m -> Some m | _ -> None);
        one "unsupported_version" "version" F.Int (fun v -> Error.Unsupported_version v)
          (function Error.Unsupported_version v -> Some v | _ -> None);
        msg "io" (fun m -> Error.Io m) (function Error.Io m -> Some m | _ -> None);
      ] }

let err_case () = keyed "err" F.Err (fun e -> Error e) (function Error e -> Some e | Ok _ -> None)

let report_f =
  record
    F.[ ("w", Int); ("pi", Int); ("optimal", Bool); ("method", Word) ]
    (fun (n_wavelengths, (pi, (optimal, (method_name, ())))) ->
      { n_wavelengths; pi; optimal; method_name })
    (fun r -> (r.n_wavelengths, (r.pi, (r.optimal, (r.method_name, ())))))

let stats_f =
  record
    F.[ ("ops", Int); ("warm_hits", Int); ("fresh_colors", Int); ("repairs", Int);
        ("repair_flips", Int); ("shrink_recolors", Int); ("warm_removes", Int);
        ("fallbacks", Int); ("full_solves", Int); ("rejected", Int) ]
    (fun (ops, (warm_hits, (fresh_colors, (repairs, (repair_flips, (shrink_recolors,
         (warm_removes, (fallbacks, (full_solves, (rejected, ())))))))))) ->
      { Engine.ops; warm_hits; fresh_colors; repairs; repair_flips; shrink_recolors;
        warm_removes; fallbacks; full_solves; rejected })
    (fun (s : Engine.stats) -> (s.ops, (s.warm_hits, (s.fresh_colors, (s.repairs, (s.repair_flips,
       (s.shrink_recolors, (s.warm_removes, (s.fallbacks, (s.full_solves, (s.rejected, ())))))))))))

let health_f =
  record
    F.[ ("healthy", Bool); ("add_p50", Int); ("add_p99", Int); ("remove_p50", Int);
        ("remove_p99", Int); ("warm_hit_recent", Float); ("warm_hit_lifetime", Float);
        ("fallback_streak", Int) ]
    (fun (healthy, (add_p50, (add_p99, (remove_p50, (remove_p99, (warm_hit_recent,
         (warm_hit_lifetime, (fallback_streak, ())))))))) ->
      { healthy; add_p50; add_p99; remove_p50; remove_p99; warm_hit_recent; warm_hit_lifetime;
        fallback_streak })
    (fun h -> (h.healthy, (h.add_p50, (h.add_p99, (h.remove_p50, (h.remove_p99,
       (h.warm_hit_recent, (h.warm_hit_lifetime, (h.fallback_streak, ())))))))))

let rollup_f =
  record
    F.[ ("count", Int); ("p50", Int); ("p90", Int); ("p99", Int); ("p999", Int); ("max", Int);
        ("ex_ns", Int); ("ex_trace", Hex) ]
    (fun (l_count, (l_p50, (l_p90, (l_p99, (l_p999, (l_max, (l_ex_ns, (l_ex_trace, ())))))))) ->
      { l_count; l_p50; l_p90; l_p99; l_p999; l_max; l_ex_ns; l_ex_trace })
    (fun r -> (r.l_count, (r.l_p50, (r.l_p90, (r.l_p99, (r.l_p999, (r.l_max, (r.l_ex_ns,
       (r.l_ex_trace, ())))))))))

let tenant_row_f =
  record
    F.[ ("tenant", Tenant); ("shard", Int); ("paths", Int); ("pi", Int); ("ops", Int);
        ("add_p50", Int); ("add_p99", Int); ("healthy", Bool) ]
    (fun (r_tenant, (r_shard, (r_paths, (r_pi, (r_ops, (r_add_p50, (r_add_p99,
         (r_healthy, ())))))))) ->
      { r_tenant; r_shard; r_paths; r_pi; r_ops; r_add_p50; r_add_p99; r_healthy })
    (fun r -> (r.r_tenant, (r.r_shard, (r.r_paths, (r.r_pi, (r.r_ops, (r.r_add_p50, (r.r_add_p99,
       (r.r_healthy, ())))))))))

(* A single op's reply and its line in a batch share one token. *)
let id_reply tag inj proj = one tag "id" F.Int inj proj
let r_path = id_reply "path" (fun id -> R_path id) (function R_path id -> Some id | _ -> None)
let r_removed =
  id_reply "removed" (fun i -> R_removed i) (function R_removed i -> Some i | _ -> None)
let r_arc = id_reply "arc" (fun id -> R_arc id) (function R_arc id -> Some id | _ -> None)

let outcomes =
  let line r inj proj = keyed (tag_of r) F.Int (fun id -> Ok (inj id)) proj in
  let path = line r_path (fun i -> O_path i) (function Ok (O_path i) -> Some i | _ -> None) in
  let removed =
    line r_removed (fun i -> O_removed i) (function Ok (O_removed i) -> Some i | _ -> None)
  in
  let arc = line r_arc (fun i -> O_arc i) (function Ok (O_arc i) -> Some i | _ -> None) in
  { F.key = None; cases = [ path; removed; arc; err_case () ] }

let tenant = ("tenant", F.Tenant)
let on_tenant tag inj proj = one tag "tenant" F.Tenant inj proj

(* One row per verb: the request, then its success reply.  A reply tag of
   [""] reuses the request's verb. *)
let verbs =
  [
    ( one "hello" "version" F.Int (fun v -> Hello v) (function Hello v -> Some v | _ -> None),
      one "" "version" F.Int (fun v -> R_hello v) (function R_hello v -> Some v | _ -> None) );
    (const "ping" Ping, const "pong" R_pong);
    (const "shutdown" Shutdown, const "bye" R_bye);
    ( case "open" F.[ tenant; ("instance", instance) ]
        (fun (tenant, (instance, ())) -> Open { tenant; instance })
        (function Open { tenant; instance } -> Some (tenant, (instance, ())) | _ -> None),
      one "" "" report_f (fun r -> R_open r) (function R_open r -> Some r | _ -> None) );
    ( case "add_path" F.[ tenant; ("vertices", Ints) ]
        (fun (tenant, (vertices, ())) -> Add_path { tenant; vertices })
        (function Add_path { tenant; vertices } -> Some (tenant, (vertices, ())) | _ -> None),
      r_path );
    ( case "remove_path" F.[ tenant; ("id", Int) ]
        (fun (tenant, (id, ())) -> Remove_path { tenant; id })
        (function Remove_path { tenant; id } -> Some (tenant, (id, ())) | _ -> None),
      r_removed );
    ( case "add_arc" F.[ tenant; ("from", Int); ("to", Int) ]
        (fun (tenant, (tail, (head, ()))) -> Add_arc { tenant; tail; head })
        (function Add_arc { tenant; tail; head } -> Some (tenant, (tail, (head, ()))) | _ -> None),
      r_arc );
    ( case "submit" F.[ tenant; ("ops", ops) ]
        (fun (tenant, (ops, ())) -> Submit { tenant; ops })
        (function Submit { tenant; ops } -> Some (tenant, (ops, ())) | _ -> None),
      case "outcomes" F.[ ("outcomes", Rows ("outcome", Union outcomes)); ("", report_f) ]
        (fun (os, (after, ())) -> R_outcomes { outcomes = Array.of_list os; after })
        (function
          | R_outcomes { outcomes; after } -> Some (Array.to_list outcomes, (after, ()))
          | _ -> None) );
    ( on_tenant "report" (fun tenant -> Report { tenant })
        (function Report { tenant } -> Some tenant | _ -> None),
      one "" "" report_f (fun r -> R_report r) (function R_report r -> Some r | _ -> None) );
    ( on_tenant "pi" (fun tenant -> Pi { tenant })
        (function Pi { tenant } -> Some tenant | _ -> None),
      one "" "pi" F.Int (fun pi -> R_pi pi) (function R_pi pi -> Some pi | _ -> None) );
    ( case "color_of" F.[ tenant; ("id", Int) ]
        (fun (tenant, (id, ())) -> Color_of { tenant; id })
        (function Color_of { tenant; id } -> Some (tenant, (id, ())) | _ -> None),
      one "color" "color" F.Int (fun c -> R_color c) (function R_color c -> Some c | _ -> None) );
    ( on_tenant "stats" (fun tenant -> Stats { tenant })
        (function Stats { tenant } -> Some tenant | _ -> None),
      one "" "" stats_f (fun s -> R_stats s) (function R_stats s -> Some s | _ -> None) );
    ( on_tenant "health" (fun tenant -> Health { tenant })
        (function Health { tenant } -> Some tenant | _ -> None),
      one "" "" health_f (fun h -> R_health h) (function R_health h -> Some h | _ -> None) );
    ( on_tenant "snapshot" (fun tenant -> Snapshot { tenant })
        (function Snapshot { tenant } -> Some tenant | _ -> None),
      one "" "instance" instance (fun i -> R_snapshot i)
        (function R_snapshot i -> Some i | _ -> None) );
    ( on_tenant "evict" (fun tenant -> Evict { tenant })
        (function Evict { tenant } -> Some tenant | _ -> None),
      const "evicted" R_evicted );
    ( const "dstats" Dstats,
      case ""
        F.[ ("shards", Int); ("sessions", Int); ("tenants", Rows ("tenant", tenant_row_f));
            ("add", rollup_f); ("remove", rollup_f) ]
        (fun (d_shards, (d_sessions, (d_tenants, (d_add, (d_remove, ()))))) ->
          R_dstats { d_shards; d_sessions; d_add; d_remove; d_tenants })
        (function
          | R_dstats d ->
            Some (d.d_shards, (d.d_sessions, (d.d_tenants, (d.d_add, (d.d_remove, ())))))
          | _ -> None) );
    ( const "dhealth" Dhealth,
      case "" F.[ ("healthy", Bool); ("sessions", Int); ("unhealthy", Tenants) ]
        (fun (dh_healthy, (dh_sessions, (dh_unhealthy, ()))) ->
          R_dhealth { dh_healthy; dh_sessions; dh_unhealthy })
        (function
          | R_dhealth h -> Some (h.dh_healthy, (h.dh_sessions, (h.dh_unhealthy, ())))
          | _ -> None) );
    ( one "tracedump" "last" F.Int (fun last -> Trace_dump { last })
        (function Trace_dump { last } -> Some last | _ -> None),
      one "trace" "doc" doc (fun d -> R_trace d) (function R_trace d -> Some d | _ -> None) );
  ]

let by_verb cases = { F.key = Some "verb"; cases }
let requests = by_verb (List.map fst verbs)

let replies =
  let resp (F.Case q, F.Case r) = if r.tag = "" then F.Case { r with tag = q.tag } else F.Case r in
  let resps = by_verb (List.map resp verbs) in
  let ok = keyed "ok" (F.Union resps) Result.ok (function Ok r -> Some r | Error _ -> None) in
  { F.key = None; cases = [ ok; err_case () ] }

(* [visit_case cases v k] applies [k] to the tag, field list and field
   values of the case [v] belongs to. *)
type 'r visitor = { visit : 'a. string -> 'a F.t -> 'a -> 'r }

let rec visit_case : type m r. m F.case list -> m -> r visitor -> r =
 fun cases v k ->
  match cases with
  | [] -> invalid_arg "Proto: value outside the message table"
  | F.Case c :: rest -> (
    match c.proj v with Some x -> k.visit c.tag c.fields x | None -> visit_case rest v k)

exception Unknown of string * string

let rec find_case what tag = function
  | [] -> raise (Unknown (what, tag))
  | (F.Case c as k) :: rest -> if String.equal c.tag tag then k else find_case what tag rest

let verb_of_req r = visit_case requests.F.cases r { visit = (fun tag _ _ -> tag) }

(* A tenant-scoped request carries its tenant as the first field. *)
let tenant_of_req r =
  let first (type a) _ (fs : a F.t) (x : a) : string option =
    match (fs, x) with F.((_, Tenant) :: _), (t, _) -> Some t | _ -> None
  in
  visit_case requests.F.cases r { visit = first }

(* --- text interpreter ------------------------------------------------------------ *)

(* Newlines and backslashes escape so a message stays on its line. *)
let escape_nl s =
  let esc i = match s.[i] with '\n' -> "\\n" | '\\' -> "\\\\" | c -> String.make 1 c in
  if not (String.exists (fun c -> c = '\n' || c = '\\') s) then s
  else String.concat "" (List.init (String.length s) esc)

let unescape_nl s =
  if not (String.contains s '\\') then s
  else begin
    let b = Buffer.create (String.length s) and esc = ref false in
    String.iter
      (fun c ->
        if !esc then Buffer.add_char b (if c = 'n' then '\n' else c)
        else if c <> '\\' then Buffer.add_char b c;
        esc := (not !esc) && c = '\\')
      s;
    if !esc then Buffer.add_char b '\\';
    Buffer.contents b
  end

exception Bad of Error.t

let bad fmt = Printf.ksprintf (fun msg -> raise (Bad (proto_error msg))) fmt
let ok_or_raise = function Ok v -> v | Error e -> raise (Bad e)

let tok h s = Buffer.add_char h ' '; Buffer.add_string h s
let rec digits h n = if n >= 10 then digits h (n / 10); Buffer.add_char h "0123456789".[n mod 10]
let put_int h n = if n < 0 then tok h (string_of_int n) else (Buffer.add_char h ' '; digits h n)

(* [h] collects the head line, [b] the writers of the lines after it. *)
let rec put : type a. Buffer.t -> (Buffer.t -> unit) list ref -> a F.ty -> a -> unit =
 fun h b ty v ->
  match ty with
  | F.Int -> put_int h v
  | F.Hex -> tok h (Printf.sprintf "%x" v)
  | F.Bool -> tok h (string_of_bool v)
  | F.Float -> tok h (Printf.sprintf "%.17g" v)
  | F.Word -> tok h v
  | F.Tenant -> tok h (checked v)
  | F.Msg -> tok h (escape_nl v)
  | F.Ints -> List.iter (put_int h) v
  | F.Tenants ->
    put h b F.Int (List.length v);
    List.iter (put h b F.Tenant) v
  | F.Rec (F.Case c) -> Option.iter (put_fields h b c.fields) (c.proj v)
  | F.Rows (tag, elt) ->
    put h b F.Int (List.length v);
    let row o x = Buffer.add_string o tag; put o b elt x; Buffer.add_char o '\n' in
    b := (fun o -> List.iter (row o) v) :: !b
  | F.Body body -> b := (fun o -> Buffer.add_string o (body.F.to_text v)) :: !b
  | F.Union u -> put_union h b u v
  | F.Err ->
    put h b F.Int (Error.to_code v);
    put_union h b errors v

and put_fields : type a. Buffer.t -> (Buffer.t -> unit) list ref -> a F.t -> a -> unit =
 fun h b fs v ->
  match (fs, v) with
  | F.[], () -> ()
  | F.((_, ty) :: rest), (x, xs) ->
    put h b ty x;
    put_fields h b rest xs

and put_union : type m. Buffer.t -> (Buffer.t -> unit) list ref -> m F.union -> m -> unit =
 fun h b u v -> visit_case u.F.cases v { visit = (fun tag fs x -> tok h tag; put_fields h b fs x) }

let hdr = "wlrpc " ^ string_of_int version

(* The optional trace context rides as a [ctx=TRACE:SPAN] token directly
   after the version, before the verb — absent for untraced peers, so
   every pre-context frame remains byte-identical. *)
let encode_text u ~ctx v =
  let h = Buffer.create 64 and b = ref [] in
  Buffer.add_string h hdr;
  if not (Ctx.is_none ctx) then tok h ("ctx=" ^ Ctx.to_string ctx);
  put_union h b u v;
  Buffer.add_char h '\n';
  List.iter (fun w -> w h) (List.rev !b);
  Buffer.contents h

(* A cursor over one line of [s], [pos] to [stop]; [body] is the next
   unread byte after the head line, shared with the cursors of row lines. *)
type cur = { s : string; mutable pos : int; stop : int; body : int ref }

let token_opt c =
  while c.pos < c.stop && c.s.[c.pos] = ' ' do c.pos <- c.pos + 1 done;
  let start = c.pos in
  while c.pos < c.stop && c.s.[c.pos] <> ' ' do c.pos <- c.pos + 1 done;
  String.sub c.s start (c.pos - start)

let token c name = match token_opt c with "" -> bad "%s: missing" name | t -> t
let at_end c = token_opt c = ""
let parsed name conv t = match conv t with Some v -> v | None -> bad "%s: bad value %S" name t
let tenant_of name t = if tenant_ok t then t else bad "%s: invalid tenant id %S" name t

(* The raw rest of the line after one separating space. *)
let rest c name =
  if c.pos >= c.stop || c.s.[c.pos] <> ' ' then bad "%s: missing" name;
  let r = String.sub c.s (c.pos + 1) (c.stop - c.pos - 1) in
  c.pos <- c.stop;
  r

let get_int c name = parsed name int_of_string_opt (token c name)
let rec times n f acc = if n <= 0 then List.rev acc else times (n - 1) f (f () :: acc)

let count c name = match get_int c name with n when n < 0 -> bad "%s: negative count" name | n -> n

(* The next non-empty line after the head, as a cursor. *)
let rec next_line c name =
  let i = !(c.body) and len = String.length c.s in
  if i >= len then bad "%s: missing line" name;
  let stop = Option.value (String.index_from_opt c.s i '\n') ~default:len in
  c.body := min len (stop + 1);
  if stop = i then next_line c name else { c with pos = i; stop }

(* An unknown constructor from a future revision degrades through the
   shared code table rather than failing the whole reply. *)
let unknown_error code ctor msg =
  match Error.of_code code msg with Some e -> e | None -> bad "unknown error constructor %s" ctor

let rec get : type a. cur -> string -> a F.ty -> a =
 fun c name ty ->
  match ty with
  | F.Int -> get_int c name
  | F.Hex -> parsed name (fun t -> int_of_string_opt ("0x" ^ t)) (token c name)
  | F.Bool -> parsed name bool_of_string_opt (token c name)
  | F.Float -> parsed name float_of_string_opt (token c name)
  | F.Word -> token c name
  | F.Tenant -> tenant_of name (token c name)
  | F.Msg -> unescape_nl (rest c name)
  | F.Ints ->
    let rec go acc =
      match token_opt c with "" -> List.rev acc | t -> go (parsed name int_of_string_opt t :: acc)
    in
    go []
  | F.Tenants -> times (count c name) (fun () -> get c name F.Tenant) []
  | F.Rec (F.Case r) -> r.inj (get_fields c r.fields)
  | F.Rows (tag, elt) ->
    times (count c name)
      (fun () ->
        let l = next_line c name in
        if token_opt l <> tag then bad "%s: expected a %s line" name tag;
        let x = get l name elt in
        if not (at_end l) then bad "%s: trailing tokens" name;
        x)
      []
  | F.Body body ->
    let i = !(c.body) in
    c.body := String.length c.s;
    ok_or_raise (body.F.of_text (String.sub c.s i (String.length c.s - i)))
  | F.Union u -> get_union c name u
  | F.Err -> (
    let code = get_int c "error code" in
    try get_union c "error constructor" errors
    with Unknown (_, ctor) ->
      unknown_error code ctor (if c.pos >= c.stop then "" else unescape_nl (rest c "msg")))

and get_fields : type a. cur -> a F.t -> a =
 fun c fs ->
  match fs with
  | F.[] -> ()
  | F.((name, ty) :: rest) ->
    let x = get c name ty in
    (x, get_fields c rest)

and get_union : type m. cur -> string -> m F.union -> m =
 fun c name u ->
  match find_case name (token c name) u.F.cases with F.Case k -> k.inj (get_fields c k.fields)

let ctx_of v = match Ctx.of_string v with Some c -> c | None -> bad "malformed ctx %S" v
let check_version v = if v <> version then raise (Bad (Error.Unsupported_version v))

let guard f =
  match f () with
  | v -> Ok v
  | exception Bad e -> Error e
  | exception Unknown (what, tag) -> Error (proto_error (Printf.sprintf "unknown %s %S" what tag))
  | exception e -> Error (proto_error ("decode raised " ^ Printexc.to_string e))

let decode_text u what payload =
  let len = String.length payload in
  let stop = Option.value (String.index_opt payload '\n') ~default:len in
  let c = { s = payload; pos = 0; stop; body = ref (min len (stop + 1)) } in
  guard @@ fun () ->
  if token_opt c <> "wlrpc" then bad "%s does not start with a wlrpc header" what;
  check_version (get c "wlrpc version" F.Int);
  (* The optional [ctx=] token sits between version and verb; anywhere
     else it is an unknown verb or a trailing token. *)
  let mark = c.pos and t = token_opt c in
  let traced = String.starts_with ~prefix:"ctx=" t in
  if not traced then c.pos <- mark;
  let ctx = if traced then ctx_of (String.sub t 4 (String.length t - 4)) else Ctx.none in
  let v = get_union c what u in
  if not (at_end c) then bad "%s: trailing tokens" what;
  for i = !(c.body) to len - 1 do
    if payload.[i] <> '\n' then bad "%s: trailing lines" what
  done;
  (v, ctx)

(* --- JSON interpreter ------------------------------------------------------------- *)

let rec jv : type a. a F.ty -> a -> Jsonx.t =
 fun ty v ->
  match ty with
  | F.Int -> Jsonx.Int v
  | F.Hex -> Jsonx.Int v
  | F.Bool -> Jsonx.Bool v
  | F.Float -> Jsonx.Float v
  | F.Word -> Jsonx.Str v
  | F.Msg -> Jsonx.Str v
  | F.Tenant -> Jsonx.Str (checked v)
  | F.Ints -> Jsonx.Arr (List.map (fun i -> Jsonx.Int i) v)
  | F.Tenants -> Jsonx.Arr (List.map (jv F.Tenant) v)
  | F.Rec (F.Case c) -> Jsonx.Obj (jfields c.fields (Option.get (c.proj v)))
  | F.Rows (_, elt) -> Jsonx.Arr (List.map (jv elt) v)
  | F.Body body -> body.F.to_json v
  | F.Union u -> Jsonx.Obj (junion u v)
  | F.Err -> Jsonx.Obj (("code", Jsonx.Int (Error.to_code v)) :: junion errors v)

(* JSON members of a field list, [Rows] members after the others. *)
and jfields : type a. a F.t -> a -> (string * Jsonx.t) list =
 fun fs v -> jmembers ~rows:false fs v (jmembers ~rows:true fs v [])

and jmembers : type a. rows:bool -> a F.t -> a -> (string * Jsonx.t) list -> _ =
 fun ~rows fs v tail ->
  match (fs, v) with
  | F.[], () -> tail
  | F.((k, ty) :: rest), (x, xs) -> (
    let tail = jmembers ~rows rest xs tail in
    match ty with
    | F.Rows _ -> if rows then (k, jv ty x) :: tail else tail
    | _ when rows -> tail
    | F.Rec (F.Case r) when k = "" -> jmembers ~rows r.fields (Option.get (r.proj x)) tail
    | _ -> (k, jv ty x) :: tail)

and junion : type m. m F.union -> m -> (string * Jsonx.t) list =
 fun u v ->
  let tagged t fs = match u.F.key with Some k -> (k, Jsonx.Str t) :: fs | None -> fs in
  visit_case u.F.cases v { visit = (fun tag fs x -> tagged tag (jfields fs x)) }

let member o name = match Jsonx.member name o with Some j -> j | None -> bad "%s: missing" name

let rec jget : type a. string -> a F.ty -> Jsonx.t -> a =
 fun name ty j ->
  match (ty, j) with
  | F.Int, Jsonx.Int i -> i
  | F.Hex, Jsonx.Int i -> i
  | F.Bool, Jsonx.Bool b -> b
  | F.Float, Jsonx.Float f -> f
  | F.Float, Jsonx.Int i -> float_of_int i
  | F.Word, Jsonx.Str s -> s
  | F.Msg, Jsonx.Str s -> s
  | F.Tenant, Jsonx.Str t -> tenant_of name t
  | F.Ints, Jsonx.Arr xs -> List.map (jget name F.Int) xs
  | F.Tenants, Jsonx.Arr xs -> List.map (jget name F.Tenant) xs
  | F.Rec (F.Case r), Jsonx.Obj _ -> r.inj (jget_fields j r.fields)
  | F.Rows (_, elt), Jsonx.Arr xs -> List.map (jget name elt) xs
  | F.Body body, j -> ok_or_raise (body.F.of_json j)
  | F.Union u, Jsonx.Obj _ -> jget_union name u j
  | F.Err, Jsonx.Obj _ -> (
    let code = jget "code" F.Int (member j "code") in
    try jget_union "error constructor" errors j
    with Unknown (_, ctor) ->
      unknown_error code ctor (match Jsonx.member "msg" j with Some (Jsonx.Str m) -> m | _ -> ""))
  | _ -> bad "%s: ill-typed" name

and jget_fields : type a. Jsonx.t -> a F.t -> a =
 fun o fs ->
  match fs with
  | F.[] -> ()
  | F.((name, ty) :: rest) ->
    let x = jget name ty (if name = "" then o else member o name) in
    (x, jget_fields o rest)

and jget_union : type m. string -> m F.union -> Jsonx.t -> m =
 fun name u o ->
  match u.F.key with
  | Some k -> (
    match find_case name (jget k F.Word (member o k)) u.F.cases with
    | F.Case c -> c.inj (jget_fields o c.fields))
  | None ->
    let rec keyed : m F.case list -> m = function
      | [] -> bad "%s: no known member" name
      | F.Case { fields = F.[ (k, ty) ]; inj; _ } :: rest -> (
        match Jsonx.member k o with Some j -> inj (jget k ty j, ()) | None -> keyed rest)
      | _ :: rest -> keyed rest
    in
    keyed u.F.cases

let encode_json u ~ctx v =
  let ctx = if Ctx.is_none ctx then [] else [ ("ctx", Jsonx.Str (Ctx.to_string ctx)) ] in
  Jsonx.to_string (Jsonx.Obj (("wlrpc", Jsonx.Int version) :: (ctx @ junion u v)))

let decode_json u what payload =
  match Jsonx.parse payload with
  | Error msg -> Error (proto_error (what ^ " JSON: " ^ msg))
  | Ok j ->
    guard @@ fun () ->
    check_version (jget "wlrpc" F.Int (member j "wlrpc"));
    let ctx = Option.fold ~none:Ctx.none ~some:(fun c -> ctx_of (jget "ctx" F.Word c)) in
    (jget_union what u j, ctx (Jsonx.member "ctx" j))

(* --- sniffing entry points -------------------------------------------------------- *)

let is_json payload = String.length payload > 0 && payload.[0] = '{'
let encode u ~json ~ctx v = if json then encode_json u ~ctx v else encode_text u ~ctx v

let decode u what p = if is_json p then decode_json u what p else decode_text u what p

let encode_request ?(json = false) ?(ctx = Ctx.none) req = encode requests ~json ~ctx req
let decode_request_ctx payload = decode requests "request" payload
let decode_request payload = Result.map fst (decode_request_ctx payload)
let encode_reply ?(json = false) ?(ctx = Ctx.none) reply = encode replies ~json ~ctx reply
let decode_reply_ctx payload = decode replies "reply" payload
let decode_reply payload = Result.map fst (decode_reply_ctx payload)
