(* Child processes: the wld daemon the serve workloads drive, and one-shot
   wl runs.  Every child is remembered until it is reaped; an exit hook
   terminates and reaps whatever is left, so the benchmark never leaves a
   process behind, even when a run aborts. *)

module Client = Wl.Client

let children = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !children)

let spawn prog args ~out =
  let null_in = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close null_in)
      (fun () -> Unix.create_process prog (Array.of_list (prog :: args)) null_in out out)
  in
  children := pid :: !children;
  pid

let reap pid =
  let _, status = Unix.waitpid [] pid in
  children := List.filter (( <> ) pid) !children;
  status

let open_log dir =
  Unix.openfile (Filename.concat dir "wl.log") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644

(* Run [wl ARGS] to completion, output to the log; true on exit 0. *)
let run_wl ~wl ~dir args =
  let log = open_log dir in
  let pid = Fun.protect ~finally:(fun () -> Unix.close log) (fun () -> spawn wl args ~out:log) in
  reap pid = Unix.WEXITED 0

type daemon = { pid : int; addr : string; sock : string }

let n_daemons = ref 0

(* The socket path is relative to the working directory, which keeps it
   inside the checkout and well under the 108-byte sun_path limit. *)
let start_daemon ~wl ~dir ~shards =
  incr n_daemons;
  let sock = Filename.concat dir (Printf.sprintf "wld-%d-%d.sock" (Unix.getpid ()) !n_daemons) in
  (try Sys.remove sock with Sys_error _ -> ());
  let log = open_log dir in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close log)
      (fun () -> spawn wl [ "wld"; "unix:" ^ sock; "--shards"; string_of_int shards ] ~out:log)
  in
  { pid; addr = "unix:" ^ sock; sock }

(* Dial until the daemon accepts; fails if it exits or takes over 10 s. *)
let connect d ~json ~seed =
  let deadline = Meter.now_ns () + 10_000_000_000 in
  let rec go () =
    match Client.connect ~json ~seed d.addr with
    | Ok c -> c
    | Error e ->
      (match Unix.waitpid [ Unix.WNOHANG ] d.pid with
      | 0, _ -> ()
      | _ ->
        children := List.filter (( <> ) d.pid) !children;
        failwith ("wld exited before accepting: " ^ Wl.Error.to_string e));
      if Meter.now_ns () > deadline then
        failwith ("wld never accepted on " ^ d.addr ^ ": " ^ Wl.Error.to_string e);
      Unix.sleepf 0.001;
      go ()
  in
  go ()

(* Close every other connection first, then ask the daemon to drain over
   [last] and wait for it to exit. *)
let stop_daemon d ~others ~last =
  List.iter Client.close others;
  let asked = Client.shutdown_server last in
  Client.close last;
  if Result.is_error asked then (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  ignore (reap d.pid);
  try Sys.remove d.sock with Sys_error _ -> ()
