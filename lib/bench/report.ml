(* Rendering the bench trajectory as a terminal dashboard.  It reads the
   Store history (last entry = current run) and runs the same gate
   comparison as `wl bench --gate`, so the report and the gate cannot
   disagree. *)

module Jsonx = Wl_json.Jsonx
module Store = Wl_obs.Store

let human_ns ns =
  let a = Float.abs ns in
  if a >= 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
  else if a >= 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
  else if a >= 1e3 then Printf.sprintf "%.2f µs" (ns /. 1e3)
  else Printf.sprintf "%.0f ns" ns

let spark_chars = [| "▁"; "▂"; "▃"; "▄"; "▅"; "▆"; "▇"; "█" |]

let sparkline = function
  | [] -> ""
  | xs ->
    let lo = List.fold_left Float.min infinity xs in
    let hi = List.fold_left Float.max neg_infinity xs in
    let buf = Buffer.create (3 * List.length xs) in
    List.iter
      (fun v ->
        let idx =
          if hi -. lo <= 0. then 3
          else int_of_float ((v -. lo) /. (hi -. lo) *. 7.99)
        in
        Buffer.add_string buf spark_chars.(max 0 (min 7 idx)))
      xs;
    Buffer.contents buf

let medians_of history name =
  List.filter_map
    (fun e ->
      List.find_map
        (fun p ->
          if p.Store.name = name then Some p.Store.sample.Store.median_ns
          else None)
        e.Store.points)
    history

(* Scalar view of a counter embedding value: plain counters are ints,
   histograms compare by observation count. *)
let scalar_of_json = function
  | Jsonx.Int i -> Some i
  | Jsonx.Obj _ as j -> Option.bind (Jsonx.member "count" j) Jsonx.to_int
  | _ -> None

(* (bench, counter, before, after) for every counter whose scalar moved
   between the two entries, largest absolute move first. *)
let counter_movements ~prev ~current =
  List.concat_map
    (fun p ->
      match
        List.find_opt (fun q -> q.Store.name = p.Store.name) prev.Store.points
      with
      | None -> []
      | Some q ->
        let scalars kvs =
          List.filter_map
            (fun (k, v) -> Option.map (fun s -> (k, s)) (scalar_of_json v))
            kvs
        in
        let before = scalars q.Store.counters in
        let after = scalars p.Store.counters in
        let keys =
          List.sort_uniq String.compare (List.map fst before @ List.map fst after)
        in
        List.filter_map
          (fun k ->
            let b = Option.value ~default:0 (List.assoc_opt k before) in
            let a = Option.value ~default:0 (List.assoc_opt k after) in
            if a = b then None else Some (p.Store.name, k, b, a))
          keys)
    current.Store.points
  |> List.sort (fun (_, _, b1, a1) (_, _, b2, a2) ->
         Int.compare (abs (a2 - b2)) (abs (a1 - b1)))

(* prof.<span>.<field> counters, re-aggregated per span across every
   bench of the entry.  Span names contain dots, so parse by the known
   field suffix, not by splitting. *)
let prof_fields =
  [
    "minor_words"; "major_words"; "promoted_words"; "minor_gcs"; "major_gcs";
    "self_ns"; "calls";
  ]

let parse_prof name =
  let plen = 5 (* "prof." *) in
  if String.length name > plen && String.sub name 0 plen = "prof." then
    List.find_map
      (fun f ->
        let suf = "." ^ f in
        let ln = String.length name and ls = String.length suf in
        if ln > plen + ls && String.sub name (ln - ls) ls = suf then
          Some (String.sub name plen (ln - plen - ls), f)
        else None)
      prof_fields
  else None

type gc_row = {
  gr_span : string;
  mutable gr_calls : int;
  mutable gr_self_ns : int;
  mutable gr_minor_w : int;
  mutable gr_minor_gcs : int;
  mutable gr_major_gcs : int;
}

let gc_rows entry =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun p ->
      List.iter
        (fun (k, v) ->
          match (parse_prof k, scalar_of_json v) with
          | Some (span, field), Some n ->
            let row =
              match Hashtbl.find_opt tbl span with
              | Some r -> r
              | None ->
                let r =
                  {
                    gr_span = span;
                    gr_calls = 0;
                    gr_self_ns = 0;
                    gr_minor_w = 0;
                    gr_minor_gcs = 0;
                    gr_major_gcs = 0;
                  }
                in
                Hashtbl.add tbl span r;
                r
            in
            (match field with
            | "calls" -> row.gr_calls <- row.gr_calls + n
            | "self_ns" -> row.gr_self_ns <- row.gr_self_ns + n
            | "minor_words" -> row.gr_minor_w <- row.gr_minor_w + n
            | "minor_gcs" -> row.gr_minor_gcs <- row.gr_minor_gcs + n
            | "major_gcs" -> row.gr_major_gcs <- row.gr_major_gcs + n
            | _ -> ())
          | _ -> ())
        p.Store.counters)
    entry.Store.points;
  Hashtbl.fold (fun _ r acc -> r :: acc) tbl []
  |> List.sort (fun a b -> String.compare a.gr_span b.gr_span)

let verdict_cell v =
  match v with
  | Store.Stable -> "  stable"
  | Store.Regression -> "▲ REGRESSION"
  | Store.Improvement -> "▼ improved"
  | Store.New_bench -> "∘ new"

let pp_terminal ?(window = 5) ?(threshold_pct = 10.) ppf history =
  match List.rev history with
  | [] -> Format.fprintf ppf "(empty trajectory)@."
  | current :: prev_rev ->
    let prev_entries = List.rev prev_rev in
    let cmp =
      Store.compare ~window ~threshold_pct ~history:prev_entries current
    in
    Format.fprintf ppf "@[<v>== bench trajectory: %s @@ %s ==@,%s@,"
      current.Store.rev current.Store.timestamp
      (Printf.sprintf "%d entries | domains=%d | ocaml %s%s"
         (List.length history) current.Store.domains
         current.Store.ocaml_version
         (if current.Store.note = "" then "" else " | " ^ current.Store.note));
    Format.fprintf ppf "@,%-34s %-24s %12s %12s %8s  %s@," "bench" "trend"
      "current" "baseline" "delta" "verdict";
    List.iter
      (fun v ->
        let trend = sparkline (medians_of history v.Store.bench) in
        match v.Store.verdict with
        | Store.New_bench ->
          Format.fprintf ppf "%-34s %-24s %12s %12s %8s  %s@," v.Store.bench
            trend
            (human_ns v.Store.current_ns)
            "-" "-"
            (verdict_cell v.Store.verdict)
        | _ ->
          Format.fprintf ppf "%-34s %-24s %12s %12s %+7.1f%%  %s@,"
            v.Store.bench trend
            (human_ns v.Store.current_ns)
            (human_ns v.Store.baseline_med_ns)
            v.Store.delta_pct
            (verdict_cell v.Store.verdict))
      cmp.Store.verdicts;
    Format.fprintf ppf "@,gate: %d regression(s), %d improvement(s), %d stable, %d new@,"
      cmp.Store.regressions cmp.Store.improvements cmp.Store.stable
      cmp.Store.new_benches;
    (match prev_entries with
    | [] -> ()
    | _ ->
      let prev = List.nth prev_entries (List.length prev_entries - 1) in
      (match counter_movements ~prev ~current with
      | [] -> ()
      | moves ->
        Format.fprintf ppf "@,top counter movements vs %s:@," prev.Store.rev;
        List.iteri
          (fun i (bench, key, b, a) ->
            if i < 8 then
              Format.fprintf ppf "  %-34s %-32s %10d -> %-10d (%+d)@," bench
                key b a (a - b))
          moves));
    (match gc_rows current with
    | [] -> ()
    | rows ->
      Format.fprintf ppf "@,GC by span (current run, summed over benches):@,";
      Format.fprintf ppf "  %-24s %8s %10s %14s %8s %8s@," "span" "calls"
        "self ms" "minor words" "min.gcs" "maj.gcs";
      List.iter
        (fun r ->
          Format.fprintf ppf "  %-24s %8d %10.2f %14d %8d %8d@," r.gr_span
            r.gr_calls
            (float_of_int r.gr_self_ns /. 1e6)
            r.gr_minor_w r.gr_minor_gcs r.gr_major_gcs)
        rows);
    Format.fprintf ppf "@]"
