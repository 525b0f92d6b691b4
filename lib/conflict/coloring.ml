module Bitset = Wl_util.Bitset
module Arena = Wl_util.Arena
module Metrics = Wl_obs.Metrics
module Trace = Wl_obs.Trace

(* DSATUR internals: how many top-bucket scans ran, how many stale (lazily
   deleted) entries those scans dropped, and how many 62-bit words
   [Bitset.first_absent] had to walk to hand out colors — the three terms
   that dominate the bucketed implementation's runtime. *)
let c_runs = Metrics.counter "dsatur.runs"
let c_pops = Metrics.counter "dsatur.bucket_pops"
let c_lazy = Metrics.counter "dsatur.lazy_deletions"
let c_words = Metrics.counter "dsatur.first_absent_words"
let h_colors = Metrics.histogram "dsatur.colors"

type t = int array

let is_valid g coloring =
  Array.length coloring = Ugraph.n_vertices g
  && Array.for_all (fun c -> c >= 0) coloring
  && begin
       (* Walk the adjacency bitsets directly; no edge list is built. *)
       let exception Clash in
       try
         Ugraph.iter_edges
           (fun u v -> if coloring.(u) = coloring.(v) then raise Clash)
           g;
         true
       with Clash -> false
     end

let n_colors coloring =
  if Array.length coloring = 0 then 0 else 1 + Array.fold_left max (-1) coloring

let normalize coloring =
  if Array.length coloring = 0 then [||]
  else begin
    (* Colors are dense in practice; a flat rename table over
       [min .. max] replaces the per-call hashtable. *)
    let lo = Array.fold_left min coloring.(0) coloring in
    let hi = Array.fold_left max coloring.(0) coloring in
    let rename = Array.make (hi - lo + 1) (-1) in (* alloc-ok *)
    let next = ref 0 in
    Array.map
      (fun c ->
        let k = c - lo in
        if rename.(k) < 0 then begin
          rename.(k) <- !next;
          incr next
        end;
        rename.(k))
      coloring
  end

(* First-fit in non-increasing degree order (Welsh–Powell).  A vertex's
   neighbours hold fewer colors than there are vertices, so one array
   marks them for every vertex: [mark.(c) = v + 1] while coloring [v]
   says a neighbour of [v] holds [c]. *)
let greedy_desc_degree g =
  let n = Ugraph.n_vertices g in
  let order = Array.init n Fun.id in (* alloc-ok *)
  Array.sort (fun u v -> compare (Ugraph.degree g v) (Ugraph.degree g u)) order;
  let coloring = Array.make n (-1) in (* alloc-ok *)
  let mark = Array.make n 0 in (* alloc-ok *)
  let stamp = ref 0 in
  let see w = if coloring.(w) >= 0 then mark.(coloring.(w)) <- !stamp in
  Array.iter
    (fun v ->
      stamp := v + 1;
      Bitset.iter see (Ugraph.neighbor_set g v);
      let c = ref 0 in
      while mark.(!c) = !stamp do
        incr c
      done;
      coloring.(v) <- !c)
    order;
  coloring

(* Reusable DSATUR working set, one per domain: the saturation bitsets
   (the dominant allocation, O(n^2/62) words), the bucket rows, and the
   arena-backed flat scratch all persist across runs, so a steady stream
   of same-sized colorings stops hammering the minor heap.  Buffers grow
   to the largest graph seen on the domain and are retained — the price
   of warm runs, bounded by that largest graph. *)
type dscratch = {
  d_arena : Arena.t;
  mutable d_cap : int; (* sat array count and per-bitset capacity *)
  mutable d_sat : Bitset.t array;
  mutable d_bucket : int array array; (* persistent rows, grow-on-demand *)
  mutable d_sat_deg : int array;
  mutable d_deg : int array;
  mutable d_colored : int array; (* 0/1 *)
  mutable d_bucket_len : int array;
}

let dscratch () =
  {
    d_arena = Arena.create ();
    d_cap = 0;
    d_sat = [||];
    d_bucket = [||];
    d_sat_deg = [||];
    d_deg = [||];
    d_colored = [||];
    d_bucket_len = [||];
  }

let dls_dscratch = Domain.DLS.new_key dscratch

(* Size the scratch for an n-vertex run and reset the per-run state.
   Allocation only happens when n exceeds everything seen before. *)
let prepare scr n =
  if n > scr.d_cap then begin
    scr.d_cap <- n;
    scr.d_sat <- Array.init n (fun _ -> Bitset.create n); (* alloc-ok *)
    let rows = Array.make n [||] in (* alloc-ok *)
    Array.blit scr.d_bucket 0 rows 0 (Array.length scr.d_bucket);
    scr.d_bucket <- rows
  end;
  Arena.reset scr.d_arena;
  scr.d_sat_deg <- Arena.ints scr.d_arena n;
  scr.d_deg <- Arena.ints scr.d_arena n;
  scr.d_colored <- Arena.ints scr.d_arena n;
  scr.d_bucket_len <- Arena.ints scr.d_arena n;
  for v = 0 to n - 1 do
    Bitset.clear scr.d_sat.(v);
    scr.d_sat_deg.(v) <- 0;
    scr.d_colored.(v) <- 0;
    scr.d_bucket_len.(v) <- 0
  done

(* DSATUR with saturation buckets.  The selection rule is the classic one —
   max saturation, tie-break on degree then on lowest index — but instead of
   an O(n) scan per pick (with an O(n/word) popcount per candidate!), each
   vertex sits in the bucket of its current saturation degree and only the
   top bucket is scanned.  Bucket membership uses lazy deletion: a vertex
   whose saturation has since grown (or that got colored) is dropped when a
   scan encounters it, so every stale entry is visited at most once. *)
let dsatur_impl g =
  let n = Ugraph.n_vertices g in
  let coloring = Array.make n (-1) in (* alloc-ok *)
  if n = 0 then coloring
  else begin
    let scr = Domain.DLS.get dls_dscratch in
    prepare scr n;
    let sat = scr.d_sat in
    let sat_deg = scr.d_sat_deg in
    let deg = scr.d_deg in
    let colored = scr.d_colored in
    (* buckets.(s): candidate vertices whose saturation reached s. *)
    let bucket = scr.d_bucket in
    let bucket_len = scr.d_bucket_len in
    for v = 0 to n - 1 do
      deg.(v) <- Ugraph.degree g v
    done;
    let push s v =
      if bucket_len.(s) = Array.length bucket.(s) then begin
        let cap = max 8 (2 * Array.length bucket.(s)) in
        let grown = Array.make cap 0 in (* alloc-ok *)
        Array.blit bucket.(s) 0 grown 0 bucket_len.(s);
        bucket.(s) <- grown
      end;
      bucket.(s).(bucket_len.(s)) <- v;
      bucket_len.(s) <- bucket_len.(s) + 1
    in
    if Array.length bucket.(0) < n then bucket.(0) <- Array.make n 0; (* alloc-ok *)
    for v = 0 to n - 1 do
      bucket.(0).(v) <- v
    done;
    bucket_len.(0) <- n;
    let max_sat = ref 0 in
    let pick () =
      while bucket_len.(!max_sat) = 0 do
        decr max_sat
      done;
      let s = !max_sat in
      let b = bucket.(s) in
      Metrics.incr c_pops;
      (* Compact live entries in place while looking for the best one. *)
      let live = ref 0 in
      let best = ref (-1) and best_deg = ref (-1) in
      let scanned = bucket_len.(s) in
      for i = 0 to bucket_len.(s) - 1 do
        let v = b.(i) in
        if colored.(v) = 0 && sat_deg.(v) = s then begin
          b.(!live) <- v;
          incr live;
          if deg.(v) > !best_deg || (deg.(v) = !best_deg && v < !best) then begin
            best := v;
            best_deg := deg.(v)
          end
        end
      done;
      bucket_len.(s) <- !live;
      Metrics.add c_lazy (scanned - !live);
      if !best < 0 then -1 else !best
    in
    for _ = 1 to n do
      let v =
        let rec go () =
          match pick () with
          | -1 ->
            (* Top bucket emptied out entirely; drop a level and retry. *)
            go ()
          | v -> v
        in
        go ()
      in
      let c = Bitset.first_absent sat.(v) in
      (* first_absent walks whole 62-bit words up to the returned bit. *)
      Metrics.add c_words ((c / 62) + 1);
      coloring.(v) <- c;
      colored.(v) <- 1;
      Bitset.iter
        (fun w ->
          if colored.(w) = 0 && not (Bitset.mem sat.(w) c) then begin
            Bitset.add sat.(w) c;
            let s = sat_deg.(w) + 1 in
            sat_deg.(w) <- s;
            push s w;
            if s > !max_sat then max_sat := s
          end)
        (Ugraph.neighbor_set g v)
    done;
    coloring
  end

let dsatur g =
  Metrics.incr c_runs;
  let coloring =
    if Trace.enabled () then
      Trace.with_span
        ~args:[ ("vertices", Trace.Int (Ugraph.n_vertices g)) ]
        "dsatur"
        (fun () -> dsatur_impl g)
    else dsatur_impl g
  in
  Metrics.observe h_colors (n_colors coloring);
  coloring

let best_heuristic g =
  let a = greedy_desc_degree g and b = dsatur g in
  if n_colors a <= n_colors b then a else b
