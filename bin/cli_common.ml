(* Flag handling and output plumbing shared by the wl subcommands and the
   stress binary — one definition for the observability flags so
   `wl session`, `wl top`, `wl wld` and `stress` stay byte-compatible in
   what they write for `wl metrics-check` / `wl trace-check`. *)

module Metrics = Wl_obs.Metrics
module Openmetrics = Wl_obs.Openmetrics
module Flight = Wl_obs.Flight

(* Write [text] to [path], "-" meaning stdout; [what] names the artifact in
   the confirmation line (suppressed for stdout). *)
let write_text ~progname ~what path text =
  if path = "-" then print_string text
  else begin
    let oc = open_out path in
    output_string oc text;
    close_out oc;
    Printf.printf "%s: wrote %s to %s (%d bytes)\n%!" progname what path
      (String.length text)
  end

(* Render the process-wide counter snapshot (plus caller gauges/latencies,
   per-label rows and trace exemplars) as an OpenMetrics exposition — the
   file `wl metrics-check` validates. *)
let write_metrics ~progname ?(gauges = []) ?(labeled = []) ?(latencies = [])
    ?(exemplars = []) path =
  let doc =
    Openmetrics.render ~gauges ~labeled ~latencies ~exemplars (Metrics.snapshot ())
  in
  write_text ~progname ~what:"OpenMetrics exposition" path doc

(* Install a process-wide flight-dump handler writing PREFIX.trace.json,
   the op tail as a Chrome trace (accepted by [wl trace-check]).  Shared
   by `wl session --flight-dump`, the wld drain path and the CI
   audit-failure smoke.

   A labeled recorder (the daemon stamps the owning tenant via
   [Flight.set_label]) dumps to PREFIX.TENANT.trace.json — with many
   sessions draining through one handler, a shared prefix would
   otherwise make every tenant overwrite the last one's dump.  Tenant
   ids are filename-safe by construction ([Proto.tenant_ok]). *)
let install_flight_dump prefix =
  Flight.set_dump_handler
    (Some
       (fun ~reason fl ->
         let prefix =
           match Flight.label fl with
           | "" -> prefix
           | tenant -> prefix ^ "." ^ tenant
         in
         let oc = open_out (prefix ^ ".trace.json") in
         output_string oc (Flight.to_chrome fl);
         close_out oc;
         Printf.eprintf "wl: flight dump (%s): wrote %s.trace.json (%d ops)\n%!"
           reason prefix (Flight.total fl)))

(* --- cmdliner argument definitions ---------------------------------------- *)

open Cmdliner

let seed_arg ?(default = 1) ?(doc = "PRNG seed.") () =
  Arg.(value & opt int default & info [ "seed" ] ~docv:"SEED" ~doc)

let metrics_out_arg ?(doc = "Write an OpenMetrics text exposition to $(docv) on exit ($(b,-) for stdout); validated by $(b,wl metrics-check).") () =
  Arg.(value & opt (some string) None & info [ "metrics-out" ] ~docv:"PATH" ~doc)

let flight_dump_arg ?(doc = "On an audit failure or drain, dump each session's flight recorder as a Chrome trace to $(docv).TENANT.trace.json; accepted by $(b,wl trace-check).") () =
  Arg.(value & opt (some string) None & info [ "flight-dump" ] ~docv:"PREFIX" ~doc)
