(* wlbench — the end-to-end benchmark of the wld service and the RWA
   planner, with a per-layer traced breakdown.

     wlbench run [--workload W]... [--seed N] [--seconds S] [--trace [0|1]]
                 [--json OUT] [--wl PATH] [--bench BENCHMARK.json]
     wlbench compare [--bench BENCHMARK.json] A.jsonl B.jsonl

   `run` runs each workload (default: all) with tracing off, checks every
   answer and prints each end-to-end metric as `workload metric value unit`
   with its sample count; `--trace` instead replays the workload layer by
   layer and prints the per-layer metrics, writing the spans as a Chrome
   trace that must pass `wl trace-check`.  The last line of each workload's
   block is one JSON object {correct, attempted, failed, metrics}.  `--json`
   appends one such record per workload to OUT.  Exit 1 when a check
   failed.

   `compare` applies the bounds of BENCHMARK.json to two sets of runs: for
   each workload and end-to-end metric it prints the median and quartiles
   of each side and reports within, worse, or unresolved (a spread wider
   than the bound).  Exit 1 unless every pair is within.

   The program is driven only through its public modules: a spawned
   `wl wld` over [Client] for the serve workloads, and [Routing] /
   [Serial] / [Solver] in-process for the route workloads. *)

module Jsonx = Wl_json.Jsonx

type kind = Serve of Churn.spec | Route of Plan.spec

(* Why each workload exists is recorded in README.md and BENCHMARK.json. *)
let workloads =
  let warm =
    {
      Churn.tenants = 256;
      family = (fun _ -> Churn.Tree);
      target = 32;
      reads_every = 0;
      json = false;
      ctx = false;
    }
  in
  [
    ("churn-warm", Serve warm);
    ("churn-ctx", Serve { warm with Churn.ctx = true });
    ( "churn-dirty",
      Serve
        {
          Churn.tenants = 128;
          family = (fun i -> if i mod 2 = 0 then Churn.Gnp else Churn.Upp1);
          target = 40;
          reads_every = 3;
          json = true;
          ctx = false;
        } );
    ( "route-sparse",
      Route
        {
          Plan.graph = (fun rng -> Wl.Generators.gnp_no_internal_cycle rng 1600 (8. /. 1600.));
          fixed_graph = true;
          requests = 200;
          w_is_load = true;
        } );
    ( "route-backbone",
      Route
        {
          Plan.graph = (fun rng -> Wl.Generators.backbone rng ~pops:8 ~levels:10);
          fixed_graph = false;
          requests = 400;
          w_is_load = false;
        } );
  ]

let die fmt = Printf.ksprintf (fun m -> prerr_endline ("wlbench: " ^ m); exit 2) fmt

(* --- BENCHMARK.json ---------------------------------------------------- *)

let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error m -> die "%s" m
  | text -> text

let to_float = function Jsonx.Int n -> Some (float_of_int n) | Jsonx.Float f -> Some f | _ -> None
let field k conv j = Option.bind (Jsonx.member k j) conv

type bound = { metric : string; lower_better : bool; bound : float }

let read_bench path =
  match Jsonx.parse (read_file path) with Error e -> die "%s: %s" path e | Ok j -> j

(* BENCHMARK.json holds the one list of metrics: a workload reports exactly
   its end_to_end metrics, or with --trace its per_layer ones, in that
   order and unit. *)
let metrics_of bench key =
  match field key Jsonx.to_list bench with
  | None -> die "BENCHMARK.json: no %s list" key
  | Some l ->
    List.map
      (fun m ->
        match (field "name" Jsonx.to_str m, field "unit" Jsonx.to_str m) with
        | Some name, Some unit -> (name, unit)
        | _ -> die "BENCHMARK.json: malformed %s entry" key)
      l

let bounds_of bench =
  let entry m =
    let str k = field k Jsonx.to_str m in
    match (str "name", str "better", field "bound" to_float m) with
    | Some metric, Some better, Some bound -> { metric; lower_better = better = "lower"; bound }
    | _ -> die "BENCHMARK.json: malformed end_to_end entry"
  in
  match field "end_to_end" Jsonx.to_list bench with
  | Some l -> List.map entry l
  | None -> die "BENCHMARK.json: no end_to_end list"

(* --- run ----------------------------------------------------------------- *)

(* JSON numbers carry every digit measured; the human lines do not. *)
let number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let metrics_json ms =
  String.concat ", "
    (List.map
       (fun (m : Meter.metric) ->
         Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.Meter.name (number m.Meter.value)
           m.Meter.unit)
       ms)

(* Arrange the produced metrics in catalog order, filling unexercised
   layers with 0; a non-finite value fails the run. *)
let complete tally catalog produced =
  List.iter
    (fun (m : Meter.metric) ->
      if not (List.mem_assoc m.Meter.name catalog) then
        die "metric %s is not in the catalog" m.Meter.name)
    produced;
  List.map
    (fun (name, unit) ->
      match List.find_opt (fun (m : Meter.metric) -> m.Meter.name = name) produced with
      | None -> Meter.metric name unit 0.
      | Some m ->
        if m.Meter.unit <> unit then
          die "metric %s has unit %s, catalog says %s" name m.Meter.unit unit;
        Meter.check tally (Float.is_finite m.Meter.value) (fun () ->
            name ^ " is not a finite number");
        m)
    catalog

(* The reconcile ratios compare passes run at different moments, so on a
   shared machine they drift with its load: out of range is reported, not
   counted as a failed check. *)
let warn_reconcile name ms =
  List.iter
    (fun (m : Meter.metric) ->
      let v = m.Meter.value in
      let reconcile = Filename.extension m.Meter.name = ".reconcile_ratio" in
      if reconcile && v <> 0. && (v < 0.8 || v > 1.2) then
        Printf.eprintf "%s: %s = %.3f lies outside [0.8, 1.2]\n" name m.Meter.name v)
    ms

let run_workload env ~bench ~trace ~json_out (name, kind) =
  let tally, produced, catalog =
    if not trace then
      let tally, ms = match kind with Serve s -> Churn.run env s | Route s -> Plan.run env s in
      (tally, ms, metrics_of bench "end_to_end")
    else begin
      let span_names, threads_named =
        match kind with
        | Serve _ -> (Churn.span_names, Churn.threads_named)
        | Route _ -> (Plan.span_names, Plan.threads_named)
      in
      let spans = Spans.create ~capacity:(1 lsl 18) span_names in
      let tally, ms =
        match kind with Serve s -> Churn.traced env s ~spans | Route s -> Plan.traced env s ~spans
      in
      let path = Filename.concat env.Meter.dir (name ^ ".trace.json") in
      Spans.write spans ~threads:threads_named path;
      Meter.check tally
        (Proc.run_wl ~wl:env.Meter.wl ~dir:env.Meter.dir [ "trace-check"; path ])
        (fun () -> "wl trace-check rejected " ^ path);
      Printf.printf "%s trace %s: %d spans (%d past capacity)\n" name path (Spans.length spans)
        (Spans.dropped spans);
      (tally, ms, metrics_of bench "per_layer")
    end
  in
  let ms = complete tally catalog produced in
  List.iter
    (fun (m : Meter.metric) ->
      Printf.printf "%s %s %.6g %s%s\n" name m.Meter.name m.Meter.value m.Meter.unit
        (if m.Meter.samples > 0 then Printf.sprintf " (n=%d)" m.Meter.samples else ""))
    ms;
  warn_reconcile name ms;
  List.iter
    (fun note -> Printf.eprintf "%s: check failed: %s\n" name note)
    (List.rev tally.Meter.notes);
  let correct = tally.Meter.failed = 0 in
  let summary =
    Printf.sprintf "\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}" correct
      (max 1 tally.Meter.attempted) tally.Meter.failed (metrics_json ms)
  in
  Option.iter
    (fun path ->
      Out_channel.with_open_gen [ Open_wronly; Open_creat; Open_append ] 0o644 path (fun oc ->
          Printf.fprintf oc "{\"workload\": %S, \"seed\": %d, \"seconds\": %s, \"trace\": %b, %s}\n"
            name env.Meter.seed (number env.Meter.seconds) trace summary))
    json_out;
  Printf.printf "{%s}\n%!" summary;
  correct

let default_wl = String.concat Filename.dir_sep [ "_build"; "default"; "bin"; "wl.exe" ]
let out_dir = ".wlbench"

let run args =
  let seed = ref 1 and seconds = ref 15. and trace = ref false and json_out = ref None in
  let wl = ref default_wl and bench = ref "BENCHMARK.json" and chosen = ref [] in
  let rec parse = function
    | [] -> ()
    | "--seed" :: v :: rest ->
      seed := (match int_of_string_opt v with Some n -> n | None -> die "bad --seed %s" v);
      parse rest
    | "--seconds" :: v :: rest ->
      seconds :=
        (match float_of_string_opt v with Some s when s > 0. -> s | _ -> die "bad --seconds %s" v);
      parse rest
    | "--trace" :: ("0" | "false") :: rest ->
      trace := false;
      parse rest
    | "--trace" :: ("1" | "true") :: rest | "--trace" :: rest ->
      trace := true;
      parse rest
    | "--workload" :: w :: rest ->
      if not (List.mem_assoc w workloads) then
        die "unknown workload %s (known: %s)" w (String.concat ", " (List.map fst workloads));
      chosen := w :: !chosen;
      parse rest
    | "--json" :: path :: rest ->
      json_out := Some path;
      parse rest
    | "--wl" :: path :: rest ->
      wl := path;
      parse rest
    | "--bench" :: path :: rest ->
      bench := path;
      parse rest
    | a :: _ -> die "run: unexpected argument %s" a
  in
  parse args;
  if not (Sys.file_exists !wl) then die "no wl binary at %s (build bin/wl.exe or pass --wl)" !wl;
  (try Sys.mkdir out_dir 0o755 with Sys_error _ -> ());
  let bench = read_bench !bench in
  let env = { Meter.seed = !seed; seconds = !seconds; wl = !wl; dir = out_dir } in
  let selected =
    if !chosen = [] then workloads else List.filter (fun (w, _) -> List.mem w !chosen) workloads
  in
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let ok =
    List.fold_left
      (fun ok w ->
        let r =
          try run_workload env ~bench ~trace:!trace ~json_out:!json_out w
          with Failure m | Sys_error m -> die "%s: %s" (fst w) m
        in
        ok && r)
      true selected
  in
  exit (if ok then 0 else 1)

(* --- compare ------------------------------------------------------------- *)

(* The untraced records of a --json file, as (workload, metric values). *)
let runs_of path =
  let values = function
    | Some (Jsonx.Obj kvs) ->
      List.filter_map (fun (k, v) -> Option.map (fun x -> (k, x)) (field "value" to_float v)) kvs
    | _ -> []
  in
  String.split_on_char '\n' (read_file path)
  |> List.filter (fun l -> String.trim l <> "")
  |> List.filter_map (fun line ->
         match Jsonx.parse line with
         | Error e -> die "%s: %s" path e
         | Ok j when field "trace" Jsonx.to_bool j = Some true -> None
         | Ok j ->
           let workload = Option.value ~default:"?" (field "workload" Jsonx.to_str j) in
           Some (workload, values (Jsonx.member "metrics" j)))

(* within: B's median is no worse than A's by more than the bound;
   worse: it is; unresolved: a side's quartile spread exceeds the bound,
   unless every run of B reads better than every run of A. *)
let verdict bd va vb =
  let q1a, ma, q3a = Meter.quartiles va and q1b, mb, q3b = Meter.quartiles vb in
  let spread q1 m q3 = (q3 -. q1) /. Float.abs m in
  let better x y = if bd.lower_better then x < y else x > y in
  let worse_by = (if bd.lower_better then mb -. ma else ma -. mb) /. Float.abs ma in
  if spread q1a ma q3a > bd.bound || spread q1b mb q3b > bd.bound then
    if List.for_all (fun y -> List.for_all (better y) va) vb then "within" else "unresolved"
  else if worse_by > bd.bound then "worse"
  else "within"

let compare_cmd args =
  let bench, a, b =
    match args with
    | [ "--bench"; bench; a; b ] -> (bench, a, b)
    | [ a; b ] -> ("BENCHMARK.json", a, b)
    | _ -> die "usage: wlbench compare [--bench BENCHMARK.json] A.jsonl B.jsonl"
  in
  let bounds = bounds_of (read_bench bench) in
  let ra = runs_of a and rb = runs_of b in
  let present = List.filter (fun (w, _) -> List.mem_assoc w ra) workloads in
  let all_within = ref (present <> []) in
  let side vs =
    let q1, m, q3 = Meter.quartiles vs in
    Printf.sprintf "%.6g [%.6g, %.6g]" m q1 q3
  in
  Printf.printf "%-15s %-17s %-31s %-31s %6s  %s\n" "workload" "metric" "A median [q1, q3]"
    "B median [q1, q3]" "bound" "verdict";
  List.iter
    (fun (w, _) ->
      List.iter
        (fun bd ->
          let values runs =
            List.filter_map
              (fun (w', ms) -> if w' = w then List.assoc_opt bd.metric ms else None)
              runs
          in
          let va = values ra and vb = values rb in
          let v, ca, cb =
            if va = [] || vb = [] then ("missing", "-", "-")
            else (verdict bd va vb, side va, side vb)
          in
          if v <> "within" then all_within := false;
          Printf.printf "%-15s %-17s %-31s %-31s %6.3f  %s\n" w bd.metric ca cb bd.bound v)
        bounds)
    present;
  exit (if !all_within then 0 else 1)

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "run" :: rest -> run rest
  | "compare" :: rest -> compare_cmd rest
  | _ ->
    prerr_endline
      "usage: wlbench run [--workload W]... [--seed N] [--seconds S] [--trace [0|1]]\n\
      \                   [--json OUT] [--wl PATH] [--bench BENCHMARK.json]\n\
      \       wlbench compare [--bench BENCHMARK.json] A.jsonl B.jsonl";
    exit 2
