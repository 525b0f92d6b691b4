(* Flight recorder: the black box an engine session carries.

   One op = 8 ints at a stride in a flat ring:
     [rel_t_ns; dur_ns; kind; outcome; arcs; palette; pi; trace]
   Recording is plain unsafe stores plus one counter bump — no boxing,
   no branches beyond the clamp — so it rides inside the engine's
   zero-minor-alloc warm add/remove paths.  Rendering (a Chrome trace)
   walks the retained tail and is cold by construction: it only runs on
   explicit dumps or when a trigger fires.

   Timestamps are stored relative to the first recorded op, which keeps
   Chrome-trace [ts] values small and makes golden fixtures
   deterministic (feed fixed t_ns values from 0). *)


type kind = Add_path | Remove_path | Add_arc | Full_solve | Audit

type outcome =
  | Warm_hit
  | Fresh_color
  | Repair
  | Fallback
  | Dirty
  | Warm_remove
  | Shrink
  | Ok
  | Rejected
  | Failed

let stride = 8

type t = {
  cap : int;  (* power of two *)
  tid : int;
  data : int array;  (* cap * stride *)
  mutable n : int;  (* lifetime op count *)
  mutable origin : int;  (* t_ns of the first op; -1 until then *)
  mutable latched : bool;
  mutable label : string;  (* e.g. owning tenant; "" until set *)
}

let create ?(capacity = 1024) ?(tid = 0) () =
  let cap =
    let c = ref 16 in
    while !c < capacity && !c < 1 lsl 20 do
      c := !c * 2
    done;
    !c
  in
  {
    cap;
    tid;
    data = Array.make (cap * stride) 0 (* alloc-ok *);
    n = 0;
    origin = -1;
    latched = false;
    label = "";
  }

let set_label t s = t.label <- s
let label t = t.label

let kind_code = function
  | Add_path -> 0
  | Remove_path -> 1
  | Add_arc -> 2
  | Full_solve -> 3
  | Audit -> 4

let kind_of_code = function
  | 0 -> Add_path
  | 1 -> Remove_path
  | 2 -> Add_arc
  | 3 -> Full_solve
  | _ -> Audit

let outcome_code = function
  | Warm_hit -> 0
  | Fresh_color -> 1
  | Repair -> 2
  | Fallback -> 3
  | Dirty -> 4
  | Warm_remove -> 5
  | Shrink -> 6
  | Ok -> 7
  | Rejected -> 8
  | Failed -> 9

let outcome_of_code = function
  | 0 -> Warm_hit
  | 1 -> Fresh_color
  | 2 -> Repair
  | 3 -> Fallback
  | 4 -> Dirty
  | 5 -> Warm_remove
  | 6 -> Shrink
  | 7 -> Ok
  | 8 -> Rejected
  | _ -> Failed

let string_of_kind = function
  | Add_path -> "add_path"
  | Remove_path -> "remove_path"
  | Add_arc -> "add_arc"
  | Full_solve -> "full_solve"
  | Audit -> "audit"

let string_of_outcome = function
  | Warm_hit -> "warm_hit"
  | Fresh_color -> "fresh_color"
  | Repair -> "repair"
  | Fallback -> "fallback"
  | Dirty -> "dirty"
  | Warm_remove -> "warm_remove"
  | Shrink -> "shrink"
  | Ok -> "ok"
  | Rejected -> "rejected"
  | Failed -> "failed"

let record t kind outcome ~t_ns ~dur_ns ~arcs ~palette ~pi ~trace =
  if t.origin < 0 then t.origin <- t_ns;
  let base = t.n land (t.cap - 1) * stride in
  let d = t.data in
  Array.unsafe_set d base (t_ns - t.origin);
  Array.unsafe_set d (base + 1) (if dur_ns < 0 then 0 else dur_ns);
  Array.unsafe_set d (base + 2) (kind_code kind);
  Array.unsafe_set d (base + 3) (outcome_code outcome);
  Array.unsafe_set d (base + 4) arcs;
  Array.unsafe_set d (base + 5) palette;
  Array.unsafe_set d (base + 6) pi;
  Array.unsafe_set d (base + 7) trace;
  t.n <- t.n + 1

let total t = t.n

type entry = {
  seq : int;
  t_ns : int;
  dur_ns : int;
  kind : kind;
  outcome : outcome;
  arcs : int;
  palette : int;
  pi : int;
  trace : int;
}

(* Oldest retained op, and how many the ring still holds. *)
let tail_bounds ?last t =
  let held = if t.n < t.cap then t.n else t.cap in
  let held = match last with Some l when l < held -> l | _ -> held in
  (t.n - held, held)

let entry_at t seq =
  let base = seq land (t.cap - 1) * stride in
  let d = t.data in
  {
    seq;
    t_ns = d.(base);
    dur_ns = d.(base + 1);
    kind = kind_of_code d.(base + 2);
    outcome = outcome_of_code d.(base + 3);
    arcs = d.(base + 4);
    palette = d.(base + 5);
    pi = d.(base + 6);
    trace = d.(base + 7);
  }

let entries ?last t =
  let first, held = tail_bounds ?last t in
  List.init held (fun i -> entry_at t (first + i))

(* One Chrome document over several rings — the TraceDump RPC's payload.
   Each ring keeps its own track ([tid] = session id) and its label as a
   ["tenant"] arg; per-ring relative stamps are rebased onto the
   earliest origin so tracks align on a common axis.  The events are
   plain {!Trace.event}s, so the one trace renderer and validator serve
   flight dumps and solver traces alike. *)
let merged_chrome ?last rings =
  let base =
    List.fold_left
      (fun acc t -> if t.origin >= 0 && t.origin < acc then t.origin else acc)
      max_int rings
  in
  let event t e =
    {
      Trace.name = string_of_kind e.kind;
      tid = t.tid;
      ts_us = float_of_int (e.t_ns + t.origin - base) /. 1e3;
      dur_us = float_of_int e.dur_ns /. 1e3;
      depth = 0;
      instant = false;
      args =
        [
          ("seq", Trace.Int e.seq);
          ("outcome", Trace.Str (string_of_outcome e.outcome));
          ("arcs", Trace.Int e.arcs);
          ("palette", Trace.Int e.palette);
          ("pi", Trace.Int e.pi);
        ]
        @ (if e.trace <> 0 then [ ("trace", Trace.Str (Ctx.hex e.trace)) ] else [])
        @ if t.label <> "" then [ ("tenant", Trace.Str t.label) ] else [];
    }
  in
  Trace.to_chrome
    (List.concat_map (fun t -> List.map (event t) (entries ?last t)) rings)

let to_chrome t = merged_chrome [ t ]

(* --- automatic dumps -------------------------------------------------------- *)

let handler : (reason:string -> t -> unit) option ref = ref None
let set_dump_handler h = handler := h

let trigger ~reason t =
  if not t.latched then begin
    t.latched <- true;
    match !handler with None -> () | Some f -> f ~reason t
  end

let rearm t = t.latched <- false
