type value = Int of int | Float of float | Str of string

type event = {
  name : string;
  tid : int;
  ts_us : float;
  dur_us : float;
  depth : int;
  instant : bool;
  args : (string * value) list;
}

type collector = { lock : Mutex.t; mutable events : event list }
type sink = Null | Memory of collector | Discard

let null = Null
let memory () = Memory { lock = Mutex.create (); events = [] }

(* Spans run (probes fire, self-time is tracked) but events are dropped:
   the sink for instrumented-but-unrecorded runs, e.g. the bench pass
   that only wants Prof's GC aggregates without a growing event list. *)
let discard = Discard

(* The installed sink and the trace origin.  [on] mirrors "sink <> Null"
   so the disabled fast path is a single atomic load; [current]/[origin]
   are only read once a span actually fires. *)
let on = Atomic.make false
let current = ref Null
let origin = ref 0.

let set_sink s =
  current := s;
  origin := Clock.now_us ();
  Atomic.set on (s <> Null)

let clear () = set_sink Null
let enabled () = Atomic.get on

(* Per-domain nesting depth. *)
let depth_key = Domain.DLS.new_key (fun () -> ref 0)

(* Per-domain stack of child-duration accumulators: when a span closes,
   its duration is added to the enclosing span's accumulator, so the
   parent can report self-time (duration minus direct children).  One
   cell per open span. *)
let children_key = Domain.DLS.new_key (fun () -> ref ([] : float ref list))

(* Extension point for span-scoped measurement (Prof's GC telemetry).
   The three hooks are sequenced so the probe can take alloc-exact
   readings: [on_start] fires after every piece of span-open
   bookkeeping (child accumulator cell, closures) has been allocated,
   [on_stop] fires before any span-close bookkeeping allocates, and
   [on_emit] — free to allocate — receives the computed figures and
   contributes event args.  Install before spawning workers, like the
   sink. *)
type probe = {
  on_start : unit -> unit;
  on_stop : unit -> unit;
  on_emit : name:string -> dur_us:float -> self_us:float -> (string * value) list;
}

let probe : probe option ref = ref None
let set_probe p = probe := p

let emit ev =
  match !current with
  | Null | Discard -> ()
  | Memory c ->
    Mutex.protect c.lock (fun () -> c.events <- ev :: c.events)

(* When a distributed trace context is ambient on this domain, stamp its
   trace id onto the event so spans from different processes (client,
   daemon shards, engine) can be grouped into one logical trace.  Only
   ever called on the enabled path, so the allocation is fine. *)
let ctx_args args =
  let tr = Ctx.current_trace () in
  if tr = 0 then args else ("trace", Str (Ctx.hex tr)) :: args

let with_span ?(args = []) name f =
  if not (Atomic.get on) then f ()
  else begin
    let t0 = Clock.now_us () in
    let depth = Domain.DLS.get depth_key in
    let stack = Domain.DLS.get children_key in
    stack := ref 0. :: !stack;
    incr depth;
    (* Snapshot the probe once so start/stop/emit always pair, even if
       it is (un)installed mid-span.  Both closures below are allocated
       BEFORE [body] runs [on_start], and [on_stop] is the first thing
       [finally] does — so nothing the span harness allocates is ever
       charged to the measured window. *)
    let p = !probe in
    let finally () =
      (match p with Some pr -> pr.on_stop () | None -> ());
      let dur_us = Clock.now_us () -. t0 in
      let child_us =
        match !stack with
        | top :: rest ->
          stack := rest;
          !top
        | [] -> 0. (* unbalanced push/pop mid-span; be lenient *)
      in
      (match !stack with
      | parent :: _ -> parent := !parent +. dur_us
      | [] -> ());
      decr depth;
      let self_us = Float.max 0. (dur_us -. child_us) in
      let extra =
        match p with
        | Some pr -> pr.on_emit ~name ~dur_us ~self_us
        | None -> []
      in
      emit
        {
          name;
          tid = (Domain.self () :> int);
          ts_us = t0 -. !origin;
          dur_us;
          depth = !depth;
          instant = false;
          args = ctx_args (args @ extra);
        }
    in
    let body () =
      (match p with Some pr -> pr.on_start () | None -> ());
      f ()
    in
    Fun.protect ~finally body
  end

let instant ?(args = []) name =
  if Atomic.get on then begin
    let depth = Domain.DLS.get depth_key in
    emit
      {
        name;
        tid = (Domain.self () :> int);
        ts_us = Clock.now_us () -. !origin;
        dur_us = 0.;
        depth = !depth;
        instant = true;
        args = ctx_args args;
      }
  end

let span_between ?(args = []) name ~t0_us ~t1_us =
  if Atomic.get on then begin
    let depth = Domain.DLS.get depth_key in
    emit
      {
        name;
        tid = (Domain.self () :> int);
        ts_us = t0_us -. !origin;
        dur_us = Float.max 0. (t1_us -. t0_us);
        depth = !depth;
        instant = false;
        args = ctx_args args;
      }
  end

let events = function
  | Null | Discard -> []
  | Memory c ->
    let evs = Mutex.protect c.lock (fun () -> c.events) in
    List.sort (fun a b -> compare a.ts_us b.ts_us) evs

(* --- Renderers ----------------------------------------------------------- *)

let escape_json s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let add_args buf args =
  Buffer.add_string buf "{";
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_string buf ", ";
      Printf.bprintf buf "\"%s\": " (escape_json k);
      match v with
      | Int n -> Printf.bprintf buf "%d" n
      | Float f -> Printf.bprintf buf "%.3f" f
      | Str s -> Printf.bprintf buf "\"%s\"" (escape_json s))
    args;
  Buffer.add_string buf "}"

let add_chrome_event buf ev =
  Printf.bprintf buf "{\"name\": \"%s\", \"cat\": \"wl\", \"ph\": \"%s\", "
    (escape_json ev.name)
    (if ev.instant then "i" else "X");
  Printf.bprintf buf "\"pid\": 1, \"tid\": %d, \"ts\": %.3f" ev.tid ev.ts_us;
  if not ev.instant then Printf.bprintf buf ", \"dur\": %.3f" ev.dur_us
  else Buffer.add_string buf ", \"s\": \"t\"";
  if ev.args <> [] then begin
    Buffer.add_string buf ", \"args\": ";
    add_args buf ev.args
  end;
  Buffer.add_string buf "}"

let to_chrome evs =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"displayTimeUnit\": \"ms\",\n\"traceEvents\": [\n";
  List.iteri
    (fun i ev ->
      if i > 0 then Buffer.add_string buf ",\n";
      add_chrome_event buf ev)
    evs;
  Buffer.add_string buf "\n]}\n";
  Buffer.contents buf

let pp_args ppf args =
  if args <> [] then begin
    Format.fprintf ppf " (";
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Format.fprintf ppf ", ";
        match v with
        | Int n -> Format.fprintf ppf "%s=%d" k n
        | Float f -> Format.fprintf ppf "%s=%.3f" k f
        | Str s -> Format.fprintf ppf "%s=%s" k s)
      args;
    Format.fprintf ppf ")"
  end

let pp_tree ppf evs =
  (* Events arrive in start-time order with recorded depths; group per
     domain so interleaved worker tracks stay readable. *)
  let tids = List.sort_uniq compare (List.map (fun e -> e.tid) evs) in
  Format.fprintf ppf "@[<v>";
  List.iteri
    (fun i tid ->
      if i > 0 then Format.fprintf ppf "@,";
      Format.fprintf ppf "domain %d:" tid;
      List.iter
        (fun ev ->
          if ev.tid = tid then begin
            Format.fprintf ppf "@,  %s%s" (String.make (2 * ev.depth) ' ') ev.name;
            if ev.instant then Format.fprintf ppf " !"
            else Format.fprintf ppf " %.1fus" ev.dur_us;
            pp_args ppf ev.args
          end)
        evs)
    tids;
  Format.fprintf ppf "@]"

let pp_summary ppf evs =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun ev ->
      if not ev.instant then begin
        let n, total, mn, mx =
          Option.value ~default:(0, 0., infinity, 0.) (Hashtbl.find_opt tbl ev.name)
        in
        Hashtbl.replace tbl ev.name
          (n + 1, total +. ev.dur_us, Float.min mn ev.dur_us, Float.max mx ev.dur_us)
      end)
    evs;
  let rows =
    Hashtbl.fold (fun name v acc -> (name, v) :: acc) tbl []
    |> List.sort (fun (_, (_, a, _, _)) (_, (_, b, _, _)) -> compare b a)
  in
  Format.fprintf ppf "@[<v>";
  List.iteri
    (fun i (name, (n, total, mn, mx)) ->
      if i > 0 then Format.fprintf ppf "@,";
      Format.fprintf ppf "%-28s %6d calls  total %10.1fus  min %8.1fus  max %8.1fus"
        name n total mn mx)
    rows;
  Format.fprintf ppf "@]"

(* --- Chrome-trace validation --------------------------------------------- *)

(* [ts] and [dur] may print as integers or as floats. *)
let validate_chrome s =
  let module J = Wl_json.Jsonx in
  let num k ev =
    match J.member k ev with
    | Some (J.Int i) -> Some (float_of_int i)
    | Some (J.Float f) -> Some f
    | _ -> None
  in
  match J.parse s with
  | Error msg -> Error ("invalid JSON: " ^ msg)
  | Ok (J.Obj _ as top) -> (
    match J.member "traceEvents" top with
    | None -> Error "missing traceEvents"
    | Some (J.Arr evs) -> (
      let check i = function
        | J.Obj _ as ev -> (
          let str k = Option.bind (J.member k ev) J.to_str in
          match (str "name", str "ph", num "ts" ev) with
          | None, _, _ -> Some (Printf.sprintf "event %d: missing name" i)
          | _, None, _ -> Some (Printf.sprintf "event %d: missing ph" i)
          | _, _, None -> Some (Printf.sprintf "event %d: missing ts" i)
          | _, Some "X", _ -> (
            match num "dur" ev with
            | Some d when d >= 0. -> None
            | _ -> Some (Printf.sprintf "event %d: X without dur >= 0" i))
          | _ -> None)
        | _ -> Some (Printf.sprintf "event %d: not an object" i)
      in
      let rec go i = function
        | [] -> Ok (List.length evs)
        | ev :: rest -> (
          match check i ev with Some e -> Error e | None -> go (i + 1) rest)
      in
      go 0 evs)
    | Some _ -> Error "traceEvents is not an array")
  | Ok _ -> Error "top level is not an object"
