(* Append-only bench trajectory, keyed by git rev and environment.

   One JSONL line per recorded bench run (schema wavelength-bench-core/3);
   every point summarizes repeated measurements as median + MAD +
   coefficient of variation, so the regression detector downstream can
   distinguish a real shift from machine noise.  The reader also accepts
   the older /1-/2 single-measurement shape (both as a standalone
   pretty-printed object and as JSONL lines), mapping ns_per_op to a
   one-run sample, so pre-observatory points replay into the same
   history. *)

module Jsonx = Wl_json.Jsonx

let schema = "wavelength-bench-core/3"
let schema_prefix = "wavelength-bench-core/"

type sample = { median_ns : float; mad_ns : float; cv : float; runs : int }

type point = {
  name : string;
  params : (string * int) list;
  extras : (string * float) list;
  sample : sample;
  baseline_ns : float option;
  counters : (string * Jsonx.t) list;
}

type entry = {
  rev : string;
  timestamp : string;
  domains : int;
  ocaml_version : string;
  note : string;
  points : point list;
  extra : (string * Jsonx.t) list;
}

(* --- robust statistics -------------------------------------------------- *)

let median_of_sorted a =
  let n = Array.length a in
  if n = 0 then invalid_arg "Store.median: empty";
  if n land 1 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  median_of_sorted a

let mad ~center xs =
  median (List.map (fun x -> Float.abs (x -. center)) xs)

let summarize samples =
  if samples = [] then invalid_arg "Store.summarize: no samples";
  let med = median samples in
  let n = float_of_int (List.length samples) in
  let mean = List.fold_left ( +. ) 0. samples /. n in
  let var =
    List.fold_left (fun acc x -> acc +. ((x -. mean) *. (x -. mean))) 0. samples
    /. n
  in
  let cv = if mean = 0. then 0. else sqrt var /. Float.abs mean in
  { median_ns = med; mad_ns = mad ~center:med samples; cv; runs = List.length samples }

(* --- environment metadata ------------------------------------------------ *)

let git_rev () =
  match Sys.getenv_opt "WL_GIT_REV" with
  | Some r when r <> "" -> r
  | _ -> (
    try
      let ic = Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" in
      let line = try input_line ic with End_of_file -> "" in
      match Unix.close_process_in ic with
      | Unix.WEXITED 0 when line <> "" -> line
      | _ -> "unknown"
    with _ -> "unknown")

let timestamp_now () =
  let t = Unix.gmtime (Unix.gettimeofday ()) in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (t.Unix.tm_year + 1900)
    (t.Unix.tm_mon + 1) t.Unix.tm_mday t.Unix.tm_hour t.Unix.tm_min
    t.Unix.tm_sec

let make ?(note = "") ~domains points =
  {
    rev = git_rev ();
    timestamp = timestamp_now ();
    domains;
    ocaml_version = Sys.ocaml_version;
    note;
    points;
    extra = [];
  }

(* --- JSON --------------------------------------------------------------- *)

let json_of_instrument = function
  | Metrics.Counter v -> Jsonx.Int v
  | Metrics.Histogram s ->
    Jsonx.Obj
      [
        ("count", Jsonx.Int s.Hdr.count);
        ("sum", Jsonx.Int s.Hdr.sum);
        ("min", Jsonx.Int s.Hdr.min);
        ("max", Jsonx.Int s.Hdr.max);
        ("p50", Jsonx.Int s.Hdr.p50);
        ("p90", Jsonx.Int s.Hdr.p90);
        ("p99", Jsonx.Int s.Hdr.p99);
        ("p999", Jsonx.Int s.Hdr.p999);
      ]

let point_to_json p =
  Jsonx.Obj
    ([ ("name", Jsonx.Str p.name) ]
    @ List.map (fun (k, v) -> (k, Jsonx.Int v)) p.params
    @ List.map (fun (k, v) -> (k, Jsonx.Float v)) p.extras
    @ [
        ("median_ns", Jsonx.Float p.sample.median_ns);
        ("mad_ns", Jsonx.Float p.sample.mad_ns);
        ("cv", Jsonx.Float p.sample.cv);
        ("runs", Jsonx.Int p.sample.runs);
      ]
    @ (match p.baseline_ns with
      | Some b -> [ ("baseline_ns", Jsonx.Float b) ]
      | None -> [])
    @ [ ("counters", Jsonx.Obj p.counters) ])

let to_json e =
  Jsonx.Obj
    ([
       ("schema", Jsonx.Str schema);
       ("rev", Jsonx.Str e.rev);
       ("timestamp", Jsonx.Str e.timestamp);
       ("domains", Jsonx.Int e.domains);
       ("ocaml", Jsonx.Str e.ocaml_version);
     ]
    @ (if e.note = "" then [] else [ ("note", Jsonx.Str e.note) ])
    @ [ ("benches", Jsonx.Arr (List.map point_to_json e.points)) ]
    @ e.extra)

let to_float = function
  | Jsonx.Float f -> Some f
  | Jsonx.Int i -> Some (float_of_int i)
  | _ -> None

(* Keys of a point object that are not free params/extras. *)
let known_point_keys =
  [
    "name"; "median_ns"; "mad_ns"; "cv"; "runs"; "baseline_ns"; "counters";
    "ns_per_op"; "baseline_ns_per_op"; "speedup";
  ]

let point_of_json ~legacy j =
  match j with
  | Jsonx.Obj fields -> (
    let str k = Option.bind (Jsonx.member k j) Jsonx.to_str in
    let num k = Option.bind (Jsonx.member k j) to_float in
    let int k = Option.bind (Jsonx.member k j) Jsonx.to_int in
    match str "name" with
    | None -> Error "bench point without a name"
    | Some name -> (
      let params, extras =
        List.fold_left
          (fun (ps, es) (k, v) ->
            if List.mem k known_point_keys then (ps, es)
            else
              match v with
              | Jsonx.Int i -> ((k, i) :: ps, es)
              | Jsonx.Float f -> (ps, (k, f) :: es)
              | _ -> (ps, es))
          ([], []) fields
      in
      let params = List.rev params and extras = List.rev extras in
      let counters =
        match Jsonx.member "counters" j with
        | Some (Jsonx.Obj kvs) -> kvs
        | _ -> []
      in
      let mk sample baseline_ns =
        Ok { name; params; extras; sample; baseline_ns; counters }
      in
      if legacy then
        match num "ns_per_op" with
        | None -> Error (name ^ ": legacy point without ns_per_op")
        | Some ns ->
          mk
            { median_ns = ns; mad_ns = 0.; cv = 0.; runs = 1 }
            (num "baseline_ns_per_op")
      else
        match num "median_ns" with
        | None -> Error (name ^ ": point without median_ns")
        | Some med ->
          mk
            {
              median_ns = med;
              mad_ns = Option.value ~default:0. (num "mad_ns");
              cv = Option.value ~default:0. (num "cv");
              runs = Option.value ~default:1 (int "runs");
            }
            (num "baseline_ns")))
  | _ -> Error "bench point is not an object"

let known_entry_keys =
  [ "schema"; "rev"; "timestamp"; "domains"; "ocaml"; "note"; "benches" ]

let of_json j =
  match j with
  | Jsonx.Obj fields -> (
    let str k = Option.bind (Jsonx.member k j) Jsonx.to_str in
    let schema_version =
      match str "schema" with
      | Some s
        when String.length s > String.length schema_prefix
             && String.sub s 0 (String.length schema_prefix) = schema_prefix ->
        int_of_string_opt
          (String.sub s
             (String.length schema_prefix)
             (String.length s - String.length schema_prefix))
      | _ -> None
    in
    match schema_version with
    | None -> Error "not a wavelength-bench-core entry"
    | Some v -> (
      let legacy = v < 3 in
      let benches =
        match Option.bind (Jsonx.member "benches" j) Jsonx.to_list with
        | Some l -> Ok l
        | None -> Error "entry without a benches array"
      in
      match benches with
      | Error e -> Error e
      | Ok benches -> (
        let rec points acc = function
          | [] -> Ok (List.rev acc)
          | b :: rest -> (
            match point_of_json ~legacy b with
            | Ok p -> points (p :: acc) rest
            | Error e -> Error e)
        in
        match points [] benches with
        | Error e -> Error e
        | Ok points ->
          let extra =
            List.filter (fun (k, _) -> not (List.mem k known_entry_keys)) fields
          in
          Ok
            {
              rev = Option.value ~default:"unknown" (str "rev");
              timestamp = Option.value ~default:"" (str "timestamp");
              domains =
                Option.value ~default:0
                  (Option.bind (Jsonx.member "domains" j) Jsonx.to_int);
              ocaml_version = Option.value ~default:"" (str "ocaml");
              note = Option.value ~default:"" (str "note");
              points;
              extra;
            })))
  | _ -> Error "entry is not an object"

(* --- files --------------------------------------------------------------- *)

let append path e =
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  output_string oc (Jsonx.to_string (to_json e));
  output_char oc '\n';
  close_out oc

let load path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | contents -> (
    let contents = String.trim contents in
    if contents = "" then Ok []
    else
      (* A whole-file parse succeeds for a standalone (possibly
         pretty-printed) object; a JSONL trajectory fails it with
         trailing garbage and is parsed line by line instead. *)
      match Jsonx.parse contents with
      | Ok j -> Result.map (fun e -> [ e ]) (of_json j)
      | Error _ ->
        let lines =
          List.filter
            (fun l -> String.trim l <> "")
            (String.split_on_char '\n' contents)
        in
        let rec go i acc = function
          | [] -> Ok (List.rev acc)
          | line :: rest -> (
            match Result.bind (Jsonx.parse line) of_json with
            | Ok e -> go (i + 1) (e :: acc) rest
            | Error msg -> Error (Printf.sprintf "line %d: %s" i msg))
        in
        go 1 [] lines)

(* --- regression gate ------------------------------------------------------

   Rolling baseline: for each bench in the current entry, take the
   medians it recorded in the last [window] history entries that contain
   it, and center the baseline at the median of those medians with a MAD
   over the same series.  The tolerance is max(threshold% of the
   baseline, 3 x that MAD): the percentage floor absorbs the single-
   point/zero-MAD case, the MAD term widens the band exactly when the
   history itself is noisy — so a pure-noise series stays green while a
   monotone drift of the same amplitude trips.  Shifts are flagged in
   both directions: an unexplained improvement is usually a broken bench
   (dead-code elimination, a size parameter change) and deserves a look
   before it silently becomes the new baseline. *)

type verdict = Stable | Regression | Improvement | New_bench

type alloc_check = {
  current_w : float;
  baseline_w : float;
  tolerance_w : float;
  alloc_verdict : verdict;
}

type bench_verdict = {
  bench : string;
  current_ns : float;
  baseline_med_ns : float;
  baseline_mad_ns : float;
  tolerance_ns : float;
  delta_pct : float;
  verdict : verdict;
  alloc : alloc_check option;
}

type comparison = {
  verdicts : bench_verdict list;
  regressions : int;
  improvements : int;
  stable : int;
  new_benches : int;
  alloc_regressions : int;
}

let last_n n xs =
  let len = List.length xs in
  if len <= n then xs else List.filteri (fun i _ -> i >= len - n) xs

(* The per-op minor-allocation figure recorded by the runner. *)
let alloc_key = "gc.minor_w"

(* Words of slack always granted on top of the percentage/MAD band: a
   zero-allocation baseline must not flag on a single boxed temporary,
   and tiny footprints jitter by a word or two of GC bookkeeping. *)
let alloc_floor_w = 64.

let alloc_check_of ~window ~threshold_pct ~history p =
  match List.assoc_opt alloc_key p.extras with
  | None -> None
  | Some current_w -> (
    let history_words =
      List.filter_map
        (fun e ->
          List.find_map
            (fun q ->
              if q.name = p.name then List.assoc_opt alloc_key q.extras
              else None)
            e.points)
        history
      |> last_n window
    in
    match history_words with
    | [] -> None
    | ws ->
      let base = median ws in
      let base_mad = mad ~center:base ws in
      let tolerance_w =
        Float.max alloc_floor_w
          (Float.max (threshold_pct /. 100. *. base) (3. *. base_mad))
      in
      let delta = current_w -. base in
      let alloc_verdict =
        if delta > tolerance_w then Regression
        else if delta < -.tolerance_w then Improvement
        else Stable
      in
      Some { current_w; baseline_w = base; tolerance_w; alloc_verdict })

let compare ?(window = 5) ?(threshold_pct = 10.) ~history entry =
  let verdicts =
    List.map
      (fun p ->
        let history_medians =
          List.filter_map
            (fun e ->
              List.find_map
                (fun q ->
                  if q.name = p.name then Some q.sample.median_ns else None)
                e.points)
            history
          |> last_n window
        in
        let alloc = alloc_check_of ~window ~threshold_pct ~history p in
        match history_medians with
        | [] ->
          {
            bench = p.name;
            current_ns = p.sample.median_ns;
            baseline_med_ns = 0.;
            baseline_mad_ns = 0.;
            tolerance_ns = 0.;
            delta_pct = 0.;
            verdict = New_bench;
            alloc;
          }
        | meds ->
          let base = median meds in
          let base_mad = mad ~center:base meds in
          let tolerance =
            Float.max (threshold_pct /. 100. *. base) (3. *. base_mad)
          in
          let delta = p.sample.median_ns -. base in
          let verdict =
            if delta > tolerance then Regression
            else if delta < -.tolerance then Improvement
            else Stable
          in
          {
            bench = p.name;
            current_ns = p.sample.median_ns;
            baseline_med_ns = base;
            baseline_mad_ns = base_mad;
            tolerance_ns = tolerance;
            delta_pct = (if base = 0. then 0. else delta /. base *. 100.);
            verdict;
            alloc;
          })
      entry.points
  in
  let count v = List.length (List.filter (fun b -> b.verdict = v) verdicts) in
  let alloc_regressions =
    List.length
      (List.filter
         (fun b ->
           match b.alloc with
           | Some a -> a.alloc_verdict = Regression
           | None -> false)
         verdicts)
  in
  {
    verdicts;
    regressions = count Regression;
    improvements = count Improvement;
    stable = count Stable;
    new_benches = count New_bench;
    alloc_regressions;
  }

let pp_verdict ppf = function
  | Stable -> Format.pp_print_string ppf "stable"
  | Regression -> Format.pp_print_string ppf "REGRESSION"
  | Improvement -> Format.pp_print_string ppf "improvement"
  | New_bench -> Format.pp_print_string ppf "new"

let pp_alloc ppf = function
  | None -> ()
  | Some a -> (
    match a.alloc_verdict with
    | Stable | New_bench -> ()
    | Regression ->
      Format.fprintf ppf "  ALLOC %.0fw (was %.0fw)" a.current_w a.baseline_w
    | Improvement ->
      Format.fprintf ppf "  alloc %.0fw (was %.0fw)" a.current_w a.baseline_w)

let pp_comparison ppf c =
  Format.fprintf ppf "@[<v>%-34s %12s %12s %8s %10s  %s" "bench" "current"
    "baseline" "delta" "tolerance" "verdict";
  List.iter
    (fun v ->
      match v.verdict with
      | New_bench ->
        Format.fprintf ppf "@,%-34s %10.0fns %12s %8s %10s  %a%a" v.bench
          v.current_ns "-" "-" "-" pp_verdict v.verdict pp_alloc v.alloc
      | _ ->
        Format.fprintf ppf "@,%-34s %10.0fns %10.0fns %+7.1f%% %8.0fns  %a%a"
          v.bench v.current_ns v.baseline_med_ns v.delta_pct v.tolerance_ns
          pp_verdict v.verdict pp_alloc v.alloc)
    c.verdicts;
  Format.fprintf ppf
    "@,%d regression(s), %d improvement(s), %d stable, %d new, %d alloc \
     regression(s)@]"
    c.regressions c.improvements c.stable c.new_benches c.alloc_regressions
