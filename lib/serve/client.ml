open Wl_core
module Digraph = Wl_digraph.Digraph
module Engine = Wl_engine.Engine
module Ctx = Wl_obs.Ctx
module Trace = Wl_obs.Trace

type transport =
  | Local of Shard.t
  | Remote of { fd : Unix.file_descr; m : Mutex.t }

type t = {
  transport : transport;
  json : bool;
  gen : Ctx.gen;  (* trace/span id source; deterministic from [seed] *)
  gen_m : Mutex.t;
  mutable closed : bool;
}

type session = { client : t; tenant : string }

type outcomes = {
  outcomes : (Proto.outcome, Error.t) result array;
  after : Proto.report;
}

let closed_error = Error.Invalid_op "client is closed"
let unexpected verb = Error (Error.Invalid_op ("unexpected reply to " ^ verb))

(* Both transports run the full codec round trip — encode, frame, unframe,
   decode on each side — so a loopback client exercises exactly the bytes
   a remote one would put on a socket.  [ctx] rides the frames; the
   server side decodes it back and propagates it into the shard. *)
let call_local shard ~json ~ctx req =
  let framed =
    Trace.with_span "wire.codec"
      ~args:[ ("dir", Trace.Str "request") ]
      (fun () -> Wire.frame (Proto.encode_request ~json ~ctx req))
  in
  match Wire.unframe framed 0 with
  | Error e -> (Error e : Proto.reply)
  | Ok (payload, _) -> (
    let reply, rctx =
      match Proto.decode_request_ctx payload with
      | Error e -> ((Error e : Proto.reply), Ctx.none)
      | Ok (req, rctx) -> (Shard.call ~ctx:rctx shard req, rctx)
    in
    let framed =
      Trace.with_span "wire.codec"
        ~args:[ ("dir", Trace.Str "reply") ]
        (fun () -> Wire.frame (Proto.encode_reply ~json ~ctx:rctx reply))
    in
    match Wire.unframe framed 0 with
    | Error e -> Error e
    | Ok (payload, _) -> (
      match Proto.decode_reply payload with
      | Error e -> Error e
      | Ok reply -> reply))

let roundtrip fd ~json ~ctx req : Proto.reply =
  match Wire.write fd (Proto.encode_request ~json ~ctx req) with
  | Error e -> Error e
  | Ok () -> (
    match Wire.read fd with
    | Error e -> Error e
    | Ok None -> Error (Error.Io "connection closed by server")
    | Ok (Some payload) -> (
      match Proto.decode_reply payload with
      | Error e -> Error e
      | Ok reply -> reply))

let call_remote fd m ~json ~ctx req =
  Mutex.protect m (fun () ->
      Trace.with_span "wire.roundtrip" (fun () -> roundtrip fd ~json ~ctx req))

let dispatch t ~ctx req =
  match t.transport with
  | Local shard -> call_local shard ~json:t.json ~ctx req
  | Remote { fd; m } -> call_remote fd m ~json:t.json ~ctx req

(* A fresh span per call: a root when no trace is ambient, a child when
   the caller already runs inside one (so an app-level span groups its
   RPCs).  The generator is shared across threads, hence the lock. *)
let next_ctx t =
  Mutex.lock t.gen_m;
  let c = Ctx.child t.gen (Ctx.current ()) in
  Mutex.unlock t.gen_m;
  c

let call t req =
  if t.closed then (Error closed_error : Proto.reply)
  else if not (Trace.enabled ()) then
    (* Untraced: no context on the wire — frames stay byte-identical to
       the pre-context protocol. *)
    dispatch t ~ctx:Ctx.none req
  else begin
    let ctx = next_ctx t in
    let prev = Ctx.current () in
    Ctx.set ctx;
    Fun.protect
      ~finally:(fun () -> Ctx.set prev)
      (fun () ->
        Trace.with_span "client.call"
          ~args:[ ("verb", Trace.Str (Proto.verb_of_req req)) ]
          (fun () -> dispatch t ~ctx req))
  end

let make transport ~json ~seed =
  { transport; json; gen = Ctx.generator seed; gen_m = Mutex.create (); closed = false }

let local ?(json = false) ?(seed = 0) ?(shards = 1) () =
  make (Local (Shard.create ~shards ())) ~json ~seed

(* Open a socket to [addr]; a failed connect closes it before raising. *)
let dial addr =
  let domain, sockaddr =
    match addr with
    | Server.Unix_sock path -> (Unix.PF_UNIX, Unix.ADDR_UNIX path)
    | Server.Tcp (host, port) ->
      let inet =
        match Unix.inet_addr_of_string host with
        | a -> a
        | exception _ -> (Unix.gethostbyname host).Unix.h_addr_list.(0)
      in
      (Unix.PF_INET, Unix.ADDR_INET (inet, port))
  in
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  (try Unix.connect fd sockaddr
   with e ->
     Unix.close fd;
     raise e);
  fd

(* One untraced hello per connection — no span, no context, no draw from
   the id generator, so trace ids stay what they were without it. *)
let check_version fd ~json =
  match roundtrip fd ~json ~ctx:Ctx.none (Proto.Hello Proto.version) with
  | Ok (Proto.R_hello v) when v = Proto.version -> Ok ()
  | Ok (Proto.R_hello v) -> Error (Error.Unsupported_version v)
  | Ok _ -> unexpected "hello"
  | Error e -> Error e

let connect ?(json = false) ?(seed = 0) addr =
  (* A write to a daemon that has gone away must return [Error (Io _)]
     from [Wire.write], not kill the process with SIGPIPE. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  match Server.address_of_string addr with
  | Error _ as e -> e
  | Ok parsed -> (
    match dial parsed with
    | exception Unix.Unix_error (e, _, _) ->
      Error (Error.Io (Printf.sprintf "cannot connect to %s: %s" addr (Unix.error_message e)))
    | exception Not_found -> Error (Error.Io (Printf.sprintf "cannot resolve %s" addr))
    | fd -> (
      match check_version fd ~json with
      | Error e ->
        (try Unix.close fd with _ -> ());
        Error e
      | Ok () -> Ok (make (Remote { fd; m = Mutex.create () }) ~json ~seed)))

let close t =
  if not t.closed then begin
    t.closed <- true;
    match t.transport with
    | Local shard -> ignore (Shard.drain shard)
    | Remote { fd; _ } -> ( try Unix.close fd with _ -> ())
  end

(* --- reply projection ------------------------------------------------------ *)

let ping t =
  match call t Proto.Ping with
  | Ok Proto.R_pong -> Ok ()
  | Error e -> Error e
  | Ok _ -> unexpected "ping"

let shutdown_server t =
  match call t Proto.Shutdown with
  | Ok Proto.R_bye -> Ok ()
  | Error e -> Error e
  | Ok _ -> unexpected "shutdown"

let session t ~tenant =
  if Proto.tenant_ok tenant then Ok { client = t; tenant }
  else Error (Error.Precondition (Printf.sprintf "invalid tenant id %S" tenant))

let open_session t ~tenant instance =
  match session t ~tenant with
  | Error _ as e -> e
  | Ok s -> (
    match call t (Proto.Open { tenant; instance }) with
    | Ok (Proto.R_open _) -> Ok s
    | Error e -> Error e
    | Ok _ -> unexpected "open")

let scall s req = call s.client req

let add_path s vertices =
  match scall s (Proto.Add_path { tenant = s.tenant; vertices }) with
  | Ok (Proto.R_path id) -> Ok id
  | Error e -> Error e
  | Ok _ -> unexpected "add_path"

let remove_path s id =
  match scall s (Proto.Remove_path { tenant = s.tenant; id }) with
  | Ok (Proto.R_removed _) -> Ok ()
  | Error e -> Error e
  | Ok _ -> unexpected "remove_path"

let submit s ops =
  match scall s (Proto.Submit { tenant = s.tenant; ops }) with
  | Ok (Proto.R_outcomes { outcomes; after }) -> Ok { outcomes; after }
  | Error e -> Error e
  | Ok _ -> unexpected "submit"

let report s =
  match scall s (Proto.Report { tenant = s.tenant }) with
  | Ok (Proto.R_report r) -> Ok r
  | Error e -> Error e
  | Ok _ -> unexpected "report"

let pi s =
  match scall s (Proto.Pi { tenant = s.tenant }) with
  | Ok (Proto.R_pi pi) -> Ok pi
  | Error e -> Error e
  | Ok _ -> unexpected "pi"

let color_of s id =
  match scall s (Proto.Color_of { tenant = s.tenant; id }) with
  | Ok (Proto.R_color c) -> Ok c
  | Error e -> Error e
  | Ok _ -> unexpected "color_of"

let stats s =
  match scall s (Proto.Stats { tenant = s.tenant }) with
  | Ok (Proto.R_stats st) -> Ok st
  | Error e -> Error e
  | Ok _ -> unexpected "stats"

let health s =
  match scall s (Proto.Health { tenant = s.tenant }) with
  | Ok (Proto.R_health h) -> Ok h
  | Error e -> Error e
  | Ok _ -> unexpected "health"

let snapshot s =
  match scall s (Proto.Snapshot { tenant = s.tenant }) with
  | Ok (Proto.R_snapshot inst) -> Ok inst
  | Error e -> Error e
  | Ok _ -> unexpected "snapshot"

let evict s =
  match scall s (Proto.Evict { tenant = s.tenant }) with
  | Ok Proto.R_evicted -> Ok ()
  | Error e -> Error e
  | Ok _ -> unexpected "evict"

(* --- daemon introspection --------------------------------------------------- *)

let daemon_stats t =
  match call t Proto.Dstats with
  | Ok (Proto.R_dstats d) -> Ok d
  | Error e -> Error e
  | Ok _ -> unexpected "dstats"

let daemon_health t =
  match call t Proto.Dhealth with
  | Ok (Proto.R_dhealth h) -> Ok h
  | Error e -> Error e
  | Ok _ -> unexpected "dhealth"

let trace_pull ?(last = 0) t =
  match call t (Proto.Trace_dump { last }) with
  | Ok (Proto.R_trace doc) -> Ok doc
  | Error e -> Error e
  | Ok _ -> unexpected "tracedump"
