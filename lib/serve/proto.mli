(** Typed [wlrpc/1] messages and their two codecs.

    Every request/reply crossing a {!Wire} frame is one of these values.
    The implementation declares each request verb, reply verb and
    {!Wl_core.Error.t} constructor once, in a message table: a tag plus
    an ordered, typed field list.  Both codecs are interpreters of that
    table, so the two encodings cannot drift apart.  Payloads exist in
    two interchangeable encodings, sniffed apart by the first byte
    ({!is_json}) exactly like {!Wl_core.Serial} does for instance files:

    {ul
    {- the {e text} form — line-oriented, [wlrpc 1 VERB ...] header, with
       instance, op-script and trace bodies embedded verbatim in their
       own text formats;}
    {- the {e JSON mirror} — one object per frame
       ([{"wlrpc":1,"verb":...}]), for debugging with ordinary tooling
       ([socat | jq]); servers accept both at all times, replying in the
       encoding the request used.}}

    Error replies carry the structured {!Wl_core.Error.t}: the frame holds
    the constructor tag, the {!Wl_core.Error.to_code} wire code {e and}
    the constructor's own payload fields, so an error round-trips the wire
    without losing its line number, index or version — and a client
    exiting with the frame's code behaves exactly like the CLI hitting
    the same error locally.  An unknown constructor (from a later
    revision) degrades through {!Wl_core.Error.of_code}. *)

open Wl_core
module Engine = Wl_engine.Engine

val version : int
(** [1] — the only protocol revision; a [hello] for any other revision is
    refused with [Unsupported_version]. *)

val tenant_ok : string -> bool
(** Tenant ids are non-empty, at most 128 bytes, and drawn from
    [A-Za-z0-9_.-] — printable, whitespace-free, safe in both encodings
    and in file names derived from them. *)

(** {1 Messages} *)

type req =
  | Hello of int  (** protocol version the client speaks *)
  | Ping
  | Shutdown  (** ask the server to drain and exit *)
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
  | Dstats  (** daemon-wide stats: shard-merged rollups + per-tenant rows *)
  | Dhealth  (** daemon-wide health: aggregate flag + unhealthy tenants *)
  | Trace_dump of { last : int }
      (** pull the merged flight rings of every live session as one
          Chrome trace document; [last] caps ops per ring ([0] = all) *)

val verb_of_req : req -> string
(** The wire verb token — the label a client span carries. *)

val tenant_of_req : req -> string option
(** The tenant a request is scoped to — its [Tenant] field in the message
    table; [None] for the tenant-less verbs ([Hello], [Ping], [Shutdown],
    [Dstats], [Dhealth], [Trace_dump]). *)

type report = {
  n_wavelengths : int;
  pi : int;
  optimal : bool;
  method_name : string;  (** {!Wl_core.Solver.method_name} token *)
}
(** The wire projection of {!Wl_core.Solver.report} — the full assignment
    stays server-side; {!req.Snapshot} materializes it as an instance when
    a client wants the complete state. *)

type health = {
  healthy : bool;
  add_p50 : int;
  add_p99 : int;
  remove_p50 : int;
  remove_p99 : int;
  warm_hit_recent : float;
  warm_hit_lifetime : float;
  fallback_streak : int;
}

type outcome = O_path of int | O_removed of int | O_arc of int

type lat_rollup = {
  l_count : int;
  l_p50 : int;
  l_p90 : int;
  l_p99 : int;
  l_p999 : int;
  l_max : int;
  l_ex_ns : int;  (** worst traced sample, ns; meaningless when no exemplar *)
  l_ex_trace : int;  (** its trace id; [0] = no exemplar *)
}
(** Daemon-wide latency figures from merging every shard's histogram via
    [Hdr.merge_into] — true cross-shard quantiles, not an average of
    per-shard quantiles. *)

type tenant_row = {
  r_tenant : string;
  r_shard : int;
  r_paths : int;
  r_pi : int;
  r_ops : int;
  r_add_p50 : int;
  r_add_p99 : int;
  r_healthy : bool;
}

type dstats = {
  d_shards : int;
  d_sessions : int;
  d_add : lat_rollup;
  d_remove : lat_rollup;
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
  | R_trace of string
      (** a complete Chrome trace document (multi-line body, like
          [R_snapshot]'s instance) *)

type reply = (resp, Error.t) result

(** {1 Projections} *)

val report_of_solver : Wl_core.Solver.report -> report
val health_of_engine : Engine.health -> health
val outcome_of_engine : Engine.op_outcome -> outcome

(** {1 Codecs}

    Encoders are total on well-formed values (invalid tenant ids raise
    [Invalid_argument] — they are unrepresentable on the wire); decoders
    are total on arbitrary bytes and never raise.  Both decoders follow
    one rule: a known verb or constructor with a missing or ill-typed
    field, an invalid tenant id anywhere, or trailing tokens or lines are
    a protocol error ([Error.Parse]); a text message field is the raw
    rest of its line, so its spacing survives; floats are exact in both
    encodings.

    [ctx] is the optional distributed trace context: the text form
    carries it as a [ctx=TRACE:SPAN] token between version and verb, the
    JSON mirror as a ["ctx"] string field.  [Ctx.none] (the default)
    encodes nothing, so untraced frames are byte-identical to the
    pre-context protocol and old peers interoperate unchanged.  On
    decode, an absent field yields [Ctx.none]; a malformed or duplicated
    field is a protocol error, never an exception. *)

val is_json : string -> bool
(** The sniff rule: a payload is the JSON mirror iff its first byte is
    [{].  A server replies in the encoding the request used. *)

val encode_request : ?json:bool -> ?ctx:Wl_obs.Ctx.t -> req -> string
val decode_request : string -> (req, Error.t) result

val decode_request_ctx : string -> (req * Wl_obs.Ctx.t, Error.t) result
(** Like {!decode_request}, also yielding the propagated context
    ([Ctx.none] when the frame carries no ctx field). *)

val encode_reply : ?json:bool -> ?ctx:Wl_obs.Ctx.t -> reply -> string
val decode_reply : string -> (reply, Error.t) result

val decode_reply_ctx : string -> (reply * Wl_obs.Ctx.t, Error.t) result
