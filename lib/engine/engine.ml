open Wl_digraph
open Wl_core
module Dag = Wl_dag.Dag
module Classify = Wl_dag.Classify
module Metrics = Wl_obs.Metrics
module Trace = Wl_obs.Trace
module Clock = Wl_obs.Clock
module Hdr = Wl_obs.Hdr
module Flight = Wl_obs.Flight
module Ctx = Wl_obs.Ctx

(* Global engine counters (no-ops until [Metrics.set_enabled]); the
   per-session [stats] record is always live, so the warm-start hit rate can
   be reported without enabling the metrics subsystem. *)
let c_ops = Metrics.counter "engine.ops"
let c_warm_hits = Metrics.counter "engine.warm_hits"
let c_fresh = Metrics.counter "engine.fresh_colors"
let c_repairs = Metrics.counter "engine.repairs"
let c_shrinks = Metrics.counter "engine.shrink_recolors"
let c_fallbacks = Metrics.counter "engine.fallbacks"
let c_full = Metrics.counter "engine.full_solves"
let h_cascade = Metrics.histogram "engine.cascade_len"
let l_add = Metrics.histogram "engine.add_path.ns"
let l_remove = Metrics.histogram "engine.remove_path.ns"

type path_id = int

type op =
  | Add_path of Digraph.vertex list
  | Remove_path of path_id
  | Add_arc of Digraph.vertex * Digraph.vertex

type op_outcome =
  | Path_added of path_id
  | Path_removed of path_id
  | Arc_added of Digraph.arc

type stats = {
  ops : int;
  warm_hits : int;
  fresh_colors : int;
  repairs : int;
  repair_flips : int;
  shrink_recolors : int;
  warm_removes : int;
  fallbacks : int;
  full_solves : int;
  rejected : int;
}

let hit_rate st =
  if st.ops = 0 then 1.0
  else
    float_of_int (st.warm_hits + st.fresh_colors + st.repairs + st.warm_removes)
    /. float_of_int st.ops

(* Occupancy entries pack the occupant slot and its back-pointer (which
   position of the slot's own arc sequence this entry is) into one word:
   [(back lsl 31) lor slot].  One row per arc instead of two halves the row
   storage and keeps the inner scan a single load per occupant. *)
let occ_shift = 31
let occ_mask = (1 lsl occ_shift) - 1

(* Warm-path working set.  None of it is logical state: every buffer is
   recomputed or re-stamped before use.  Buffers grow geometrically
   and are retained, which is what makes a steady stream of warm
   add/remove ops allocation-free once capacities have settled. *)
type scr = {
  mutable z_used : int array; (* 0/1 per color, filled per use *)
  mutable z_cnt : int array; (* per-color wearer counts (repair alpha pick) *)
  mutable z_visited : int array; (* per-slot generation stamps (Kempe BFS) *)
  mutable z_queue : int array; (* BFS queue; after the BFS, the component *)
  mutable z_members : int array; (* shrink: slots of the emptied class *)
  mutable z_applied : int array; (* shrink undo log, packed (slot, color) *)
  mutable z_vstamp : int array; (* per-vertex stamps (dipath validation) *)
  mutable z_gen : int; (* stamp generation; bumped per use, never reset *)
  mutable z_head : int; (* BFS cursor *)
  mutable z_tail : int;
  mutable z_pool : int array array; (* recycled slot_pos rows (LIFO) *)
  mutable z_pool_len : int;
}

let new_scr () =
  {
    z_used = Array.make 8 0; (* alloc-ok *)
    z_cnt = Array.make 8 0; (* alloc-ok *)
    z_visited = Array.make 8 0; (* alloc-ok *)
    z_queue = Array.make 8 0; (* alloc-ok *)
    z_members = Array.make 8 0; (* alloc-ok *)
    z_applied = Array.make 8 0; (* alloc-ok *)
    z_vstamp = Array.make 8 0; (* alloc-ok *)
    z_gen = 0;
    z_head = 0;
    z_tail = 0;
    z_pool = Array.make 8 [||]; (* alloc-ok *)
    z_pool_len = 0;
  }

let ensure_color_cap z n =
  if Array.length z.z_used < n then begin
    let cap = max n (2 * Array.length z.z_used + 8) in
    z.z_used <- Array.make cap 0; (* alloc-ok *)
    z.z_cnt <- Array.make cap 0 (* alloc-ok *)
  end

(* Growing drops old stamps without a blit: generations are strictly
   positive and bumped before every traversal, so fresh zeros can never
   masquerade as the current generation. *)
let ensure_slot_scratch z n =
  if Array.length z.z_visited < n then begin
    let cap = max n (2 * Array.length z.z_visited + 8) in
    z.z_visited <- Array.make cap 0; (* alloc-ok *)
    z.z_queue <- Array.make cap 0; (* alloc-ok *)
    z.z_members <- Array.make cap 0; (* alloc-ok *)
    z.z_applied <- Array.make cap 0 (* alloc-ok *)
  end

let ensure_vertex_scratch z n =
  if Array.length z.z_vstamp < n then
    z.z_vstamp <- Array.make (max n (2 * Array.length z.z_vstamp + 8)) 0 (* alloc-ok *)

let pool_push z row =
  if z.z_pool_len >= Array.length z.z_pool then begin
    let b = Array.make (2 * Array.length z.z_pool + 8) [||] in (* alloc-ok *)
    Array.blit z.z_pool 0 b 0 z.z_pool_len;
    z.z_pool <- b
  end;
  z.z_pool.(z.z_pool_len) <- row;
  z.z_pool_len <- z.z_pool_len + 1

(* A recycled row of at least [n] entries, or a fresh one.  Only the pool
   top is considered: the steady state this serves is add/remove cycles over
   same-shaped paths, where the row freed by the last removal fits the next
   insertion exactly. *)
let pool_pop z n =
  if z.z_pool_len > 0 && Array.length z.z_pool.(z.z_pool_len - 1) >= n then begin
    z.z_pool_len <- z.z_pool_len - 1;
    let r = z.z_pool.(z.z_pool_len) in
    z.z_pool.(z.z_pool_len) <- [||];
    r
  end
  else Array.make n 0 (* alloc-ok *)

(* The logical state of a session.  The occupancy index is the mutable
   cousin of the instance CSR index: per arc, the live slots through it,
   each entry packed with its back-pointer; [slot_pos] is the inverse.
   Swap-removal keeps every update O(1) per arc of the touched dipath, and
   [occ_len] doubles as the live per-arc load. *)
type core = {
  mutable g : Digraph.t;
  mutable frozen : Dag.t option;
      (* a copy of [g] with its topological order, made by the first
         materialization after an [add_arc] and never mutated, so every
         instance materialized until the next [add_arc] shares it *)
  mutable slot_path : Dipath.t array; (* meaningful where [slot_live] *)
  mutable slot_live : bool array; (* false = removed; ids never reused *)
  mutable n_slots : int;
  mutable n_live : int;
  mutable colors : int array; (* per slot; meaningful when [warm] *)
  mutable slot_arcs : int array array; (* borrowed Dipath.unsafe_arc_array rows *)
  mutable slot_pos : int array array; (* slot_pos.(s).(k): index in occ of s's k-th arc *)
  mutable occ : int array array; (* per arc, packed entries, capacity >= occ_len *)
  mutable occ_len : int array; (* live load per arc *)
  mutable n_arcs : int;
  mutable load_hist : int array; (* # arcs with load l, l >= 1 *)
  mutable maxload : int; (* live pi *)
  mutable palette : int; (* # colors in use when [warm] *)
  mutable color_count : int array; (* live wearers per color, length >= palette *)
  mutable classification : Classify.t; (* of [g]; full solves reuse it *)
  mutable has_cycle : bool; (* internal cycle present (monotone under add_arc) *)
  mutable warm : bool; (* colors valid, contiguous, palette = maxload = pi *)
  mutable dirty : bool; (* state diverged; next query runs a full solve *)
  mutable cached_report : Solver.report option;
  scr : scr; (* not part of the logical state *)
}

(* Always-on per-session observability.  Everything here records with
   plain int stores / lock-free atomics, so it lives inside the warm
   paths without breaking their zero-minor-alloc contract; reading any
   of it back (health, dumps) is cold and may allocate. *)
type session = {
  sid : int;
  repair_budget : int;
  core : core;
  flight : Flight.t;  (* ring of the last ops, dumped on failure *)
  lat_add : Hdr.t;  (* add-op latency, whole warm/dirty path *)
  lat_remove : Hdr.t;
  slo : Hdr.Slo.t;  (* burn-rate over add+remove latencies *)
  hit_ring : int array;  (* 1 = op handled warm, recent window *)
  mutable hit_idx : int;
  mutable hit_filled : int;
  mutable hit_sum : int;
  mutable fb_streak : int;  (* consecutive warm-path fallbacks *)
  mutable max_fb_streak : int;
  mutable s_ev : Flight.outcome;  (* outcome of the op in flight *)
  mutable s_ops : int;
  mutable s_warm_hits : int;
  mutable s_fresh : int;
  mutable s_repairs : int;
  mutable s_repair_flips : int;
  mutable s_shrinks : int;
  mutable s_warm_removes : int;
  mutable s_fallbacks : int;
  mutable s_full : int;
  mutable s_rejected : int;
}

let next_sid = Atomic.make 0

(* --- growth helpers -------------------------------------------------------- *)

let grow_int_array a len fill =
  if Array.length a >= len then a
  else begin
    let b = Array.make (max len (2 * Array.length a + 4)) fill in (* alloc-ok *)
    Array.blit a 0 b 0 (Array.length a);
    b
  end

let grow_row_array a len fill =
  if Array.length a >= len then a
  else begin
    let b = Array.make (max len (2 * Array.length a + 4)) fill in (* alloc-ok *)
    Array.blit a 0 b 0 (Array.length a);
    b
  end

let ensure_arc_capacity c m =
  c.occ <- grow_row_array c.occ m [||];
  c.occ_len <- grow_int_array c.occ_len m 0

(* [p] doubles as the fill for fresh [slot_path] cells (there is no dummy
   dipath); those cells are only ever read where [slot_live] holds. *)
let ensure_slot_capacity c n p =
  c.slot_path <- grow_row_array c.slot_path n p;
  c.slot_live <- grow_row_array c.slot_live n false;
  c.colors <- grow_int_array c.colors n (-1);
  c.slot_arcs <- grow_row_array c.slot_arcs n [||];
  c.slot_pos <- grow_row_array c.slot_pos n [||]

let bump_load c a =
  let l = c.occ_len.(a) in
  (* [l] is the pre-insert load; the entry itself is pushed by the caller. *)
  c.load_hist <- grow_int_array c.load_hist (l + 2) 0;
  if l >= 1 then c.load_hist.(l) <- c.load_hist.(l) - 1;
  c.load_hist.(l + 1) <- c.load_hist.(l + 1) + 1;
  if l + 1 > c.maxload then c.maxload <- l + 1

let drop_load c a =
  let l = c.occ_len.(a) in
  (* [l] is the pre-remove load. *)
  c.load_hist.(l) <- c.load_hist.(l) - 1;
  if l > 1 then c.load_hist.(l - 1) <- c.load_hist.(l - 1) + 1;
  while c.maxload > 0 && c.load_hist.(c.maxload) = 0 do
    c.maxload <- c.maxload - 1
  done

(* Insert slot [s] into the occupancy of every arc it traverses. *)
let occ_insert c s =
  let arcs = c.slot_arcs.(s) in
  let n = Array.length arcs in
  let pos = pool_pop c.scr n in
  for k = 0 to n - 1 do
    let a = Array.unsafe_get arcs k in
    let i = c.occ_len.(a) in
    let row = c.occ.(a) in
    let row =
      if i < Array.length row then row
      else begin
        let nr = Array.make (max 4 (2 * Array.length row)) 0 in (* alloc-ok *)
        Array.blit row 0 nr 0 i;
        c.occ.(a) <- nr;
        nr
      end
    in
    bump_load c a;
    row.(i) <- (k lsl occ_shift) lor s;
    pos.(k) <- i;
    c.occ_len.(a) <- i + 1
  done;
  c.slot_pos.(s) <- pos

let occ_remove c s =
  let arcs = c.slot_arcs.(s) and pos = c.slot_pos.(s) in
  for k = 0 to Array.length arcs - 1 do
    let a = Array.unsafe_get arcs k in
    let i = pos.(k) in
    let last = c.occ_len.(a) - 1 in
    let w = c.occ.(a).(last) in
    c.occ.(a).(i) <- w;
    c.slot_pos.(w land occ_mask).(w lsr occ_shift) <- i;
    drop_load c a;
    c.occ_len.(a) <- last
  done;
  c.slot_pos.(s) <- [||];
  pool_push c.scr pos

(* --- construction ---------------------------------------------------------- *)

let default_repair_budget = 256

let make_core g classification =
  let m = Digraph.n_arcs g in
  {
    g;
    frozen = None;
    slot_path = [||];
    slot_live = Array.make 8 false; (* alloc-ok *)
    n_slots = 0;
    n_live = 0;
    colors = Array.make 8 (-1); (* alloc-ok *)
    slot_arcs = Array.make 8 [||]; (* alloc-ok *)
    slot_pos = Array.make 8 [||]; (* alloc-ok *)
    occ = Array.make (max 1 m) [||]; (* alloc-ok *)
    occ_len = Array.make (max 1 m) 0; (* alloc-ok *)
    n_arcs = m;
    load_hist = Array.make 8 0; (* alloc-ok *)
    maxload = 0;
    palette = 0;
    color_count = Array.make 8 0; (* alloc-ok *)
    classification;
    has_cycle = classification.Classify.n_internal_cycles > 0;
    warm = false;
    dirty = true;
    cached_report = None;
    scr = new_scr ();
  }

let slo_target_ns = 1_000_000 (* 1 ms per op: generous for warm ops *)
let slo_budget = 0.01

let fresh_session ?(repair_budget = default_repair_budget)
    ?(flight_capacity = 1024) core =
  let sid = Atomic.fetch_and_add next_sid 1 in
  {
    sid;
    repair_budget;
    core;
    flight = Flight.create ~capacity:flight_capacity ~tid:sid ();
    lat_add = Hdr.create ();
    lat_remove = Hdr.create ();
    slo = Hdr.Slo.create ~target_ns:slo_target_ns ~budget:slo_budget;
    hit_ring = Array.make 256 0 (* alloc-ok *);
    hit_idx = 0;
    hit_filled = 0;
    hit_sum = 0;
    fb_streak = 0;
    max_fb_streak = 0;
    s_ev = Flight.Ok;
    s_ops = 0;
    s_warm_hits = 0;
    s_fresh = 0;
    s_repairs = 0;
    s_repair_flips = 0;
    s_shrinks = 0;
    s_warm_removes = 0;
    s_fallbacks = 0;
    s_full = 0;
    s_rejected = 0;
  }

let new_slot c p =
  ensure_slot_capacity c (c.n_slots + 1) p;
  let s = c.n_slots in
  c.n_slots <- s + 1;
  c.slot_path.(s) <- p;
  c.slot_live.(s) <- true;
  c.colors.(s) <- -1;
  c.slot_arcs.(s) <- Dipath.unsafe_arc_array p;
  c.n_live <- c.n_live + 1;
  occ_insert c s;
  s

let create ?repair_budget ?flight_capacity inst =
  let g = Digraph.copy (Instance.graph inst) in
  let classification = Classify.classify (Instance.dag inst) in
  let core = make_core g classification in
  List.iter (fun p -> ignore (new_slot core p)) (Instance.paths_list inst);
  fresh_session ?repair_budget ?flight_capacity core

let n_live_paths s = s.core.n_live
let pi s = s.core.maxload

let live_paths s =
  let c = s.core in
  let acc = ref [] in
  for i = c.n_slots - 1 downto 0 do
    if c.slot_live.(i) then acc := (i, c.slot_path.(i)) :: !acc
  done;
  !acc

let stats s =
  {
    ops = s.s_ops;
    warm_hits = s.s_warm_hits;
    fresh_colors = s.s_fresh;
    repairs = s.s_repairs;
    repair_flips = s.s_repair_flips;
    shrink_recolors = s.s_shrinks;
    warm_removes = s.s_warm_removes;
    fallbacks = s.s_fallbacks;
    full_solves = s.s_full;
    rejected = s.s_rejected;
  }

(* --- materialization and the full-solve path ------------------------------- *)

let frozen_dag c =
  match c.frozen with
  | Some dag -> dag
  | None ->
    (* The session never lets a directed cycle in, so this cannot fail. *)
    let dag = Dag.of_digraph_exn (Digraph.copy c.g) in
    c.frozen <- Some dag;
    dag

let materialize_core c =
  let dag = frozen_dag c in
  let live = ref [] in
  for i = c.n_slots - 1 downto 0 do
    if c.slot_live.(i) then live := c.slot_path.(i) :: !live
  done;
  Instance.of_array dag (Array.of_list !live) (* alloc-ok *)

let instance s = materialize_core s.core

(* Install a solver assignment back into the per-slot colors; the session
   returns to warm mode when the result has Theorem-1 shape (contiguous
   colors, palette = pi) and the graph still has no internal cycle. *)
let install_assignment c (report : Solver.report) =
  let j = ref 0 in
  let max_c = ref (-1) in
  for i = 0 to c.n_slots - 1 do
    if c.slot_live.(i) then begin
      let col = report.Solver.assignment.(!j) in
      c.colors.(i) <- col;
      if col > !max_c then max_c := col;
      incr j
    end
  done;
  let palette = !max_c + 1 in
  c.palette <- palette;
  c.color_count <- grow_int_array c.color_count (max 1 palette) 0;
  Array.fill c.color_count 0 (Array.length c.color_count) 0;
  for i = 0 to c.n_slots - 1 do
    if c.slot_live.(i) then
      c.color_count.(c.colors.(i)) <- c.color_count.(c.colors.(i)) + 1
  done;
  let contiguous = ref true in
  for col = 0 to palette - 1 do
    if c.color_count.(col) = 0 then contiguous := false
  done;
  c.warm <- (not c.has_cycle) && !contiguous && palette = c.maxload

let ensure_clean s =
  let c = s.core in
  if c.dirty then begin
    let solve () =
      let t0 = Clock.now_ns () in
      let inst = materialize_core c in
      let report = Solver.solve_classified c.classification inst in
      install_assignment c report;
      c.dirty <- false;
      c.cached_report <- Some report;
      s.s_full <- s.s_full + 1;
      Metrics.incr c_full;
      Flight.record s.flight Flight.Full_solve Flight.Ok ~t_ns:t0
        ~dur_ns:(Clock.now_ns () - t0) ~arcs:0 ~palette:c.palette ~pi:c.maxload
        ~trace:(Ctx.current_trace ())
    in
    if Trace.enabled () then
      Trace.with_span
        ~args:[ ("paths", Trace.Int c.n_live) ]
        "engine.full_solve" solve
    else solve ()
  end

let build_warm_report c =
  assert (c.warm && not c.dirty);
  let assignment = Array.make c.n_live 0 in (* alloc-ok *)
  let j = ref 0 in
  for i = 0 to c.n_slots - 1 do
    if c.slot_live.(i) then begin
      assignment.(!j) <- c.colors.(i);
      incr j
    end
  done;
  {
    Solver.classification = c.classification;
    pi = c.maxload;
    lower_bound = c.maxload;
    lower_bound_source = Solver.From_load;
    assignment;
    n_wavelengths = c.palette;
    method_used = Solver.Theorem_1;
    optimal = true;
  }

let report s =
  ensure_clean s;
  let c = s.core in
  match c.cached_report with
  | Some r -> r
  | None ->
    let r = build_warm_report c in
    c.cached_report <- Some r;
    r

let color_of s pid =
  let c = s.core in
  if pid < 0 || pid >= c.n_slots then
    Error (Error.Bad_index { what = "path"; index = pid })
  else if not c.slot_live.(pid) then
    Error (Error.Invalid_op (Printf.sprintf "path %d was removed" pid))
  else begin
    ensure_clean s;
    Ok c.colors.(pid)
  end

(* --- warm-path machinery ---------------------------------------------------

   Everything below runs on the core's scratch: generation stamps instead of
   fresh mark arrays, an int-array queue instead of [Queue], packed ints
   instead of option/tuple returns, and top-level tail-recursive helpers
   instead of environment-capturing closures (which allocate without
   flambda).  A warm add or remove in steady state performs no minor
   allocation at all, which is what the [engine.add_path] span's
   [gc.minor_w = 0] reading in {!Wl_obs.Prof} reports. *)

(* First color in [col .. n-1] with [used.(col) = 0], or -1. *)
let rec first_free used n col =
  if col >= n then -1
  else if Array.unsafe_get used col = 0 then col
  else first_free used n (col + 1)

let rec argmin_color cc n best col =
  if col >= n then best
  else if cc.(col) < cc.(best) then argmin_color cc n col (col + 1)
  else argmin_color cc n best (col + 1)

(* Mark in [z_used] every palette color worn by a live occupant of [q]'s
   arcs other than [q] itself.  Caller fills [z_used] first. *)
let mark_neighbor_colors c q =
  let used = c.scr.z_used in
  let arcs = c.slot_arcs.(q) in
  for k = 0 to Array.length arcs - 1 do
    let a = Array.unsafe_get arcs k in
    let row = c.occ.(a) in
    for j = 0 to c.occ_len.(a) - 1 do
      let x = Array.unsafe_get row j land occ_mask in
      if x <> q then Array.unsafe_set used c.colors.(x) 1
    done
  done

(* Smallest color of [0 .. palette - 1] worn by no live occupant of the
   slot's arcs (other than the slot itself); -1 if none. *)
let free_color c s =
  if c.palette = 0 then -1
  else begin
    let z = c.scr in
    ensure_color_cap z c.palette;
    Array.fill z.z_used 0 c.palette 0;
    mark_neighbor_colors c s;
    first_free z.z_used c.palette 0
  end

let push_color_count c col =
  c.color_count <- grow_int_array c.color_count (col + 1) 0;
  c.color_count.(col) <- c.color_count.(col) + 1

(* Kempe component of [start] in the {alpha, beta} conflict subgraph over
   live colored slots; collect-then-flip so a partial traversal never leaves
   an invalid coloring behind.  The BFS queue is the collection: every
   component member is enqueued exactly once, so after the traversal
   [z_queue.(0 .. z_tail - 1)] is the component. *)
let kempe_flip c ~alpha ~beta start =
  let z = c.scr in
  ensure_slot_scratch z c.n_slots;
  z.z_gen <- z.z_gen + 1;
  let g = z.z_gen in
  let vis = z.z_visited and queue = z.z_queue in
  vis.(start) <- g;
  queue.(0) <- start;
  z.z_head <- 0;
  z.z_tail <- 1;
  while z.z_head < z.z_tail do
    let x = queue.(z.z_head) in
    z.z_head <- z.z_head + 1;
    let other = if c.colors.(x) = alpha then beta else alpha in
    let arcs = c.slot_arcs.(x) in
    for k = 0 to Array.length arcs - 1 do
      let a = Array.unsafe_get arcs k in
      let row = c.occ.(a) in
      for j = 0 to c.occ_len.(a) - 1 do
        let q = Array.unsafe_get row j land occ_mask in
        if vis.(q) <> g && c.colors.(q) = other then begin
          vis.(q) <- g;
          queue.(z.z_tail) <- q;
          z.z_tail <- z.z_tail + 1
        end
      done
    done
  done;
  let size = z.z_tail in
  for i = 0 to size - 1 do
    let x = queue.(i) in
    let old = c.colors.(x) in
    let nw = if old = alpha then beta else alpha in
    c.colors.(x) <- nw;
    c.color_count.(old) <- c.color_count.(old) - 1;
    c.color_count.(nw) <- c.color_count.(nw) + 1
  done;
  size

(* First alpha-wearer on a row other than [s], or -1. *)
let rec conflict_in_row c s row j len alpha =
  if j >= len then -1
  else begin
    let q = Array.unsafe_get row j land occ_mask in
    if q <> s && c.colors.(q) = alpha then q
    else conflict_in_row c s row (j + 1) len alpha
  end

(* First arc of slot [s] still carrying an alpha-wearer, packed with the
   wearer as [(arc lsl 31) lor wearer]; -1 when alpha is free everywhere. *)
let rec find_conflict c s arcs k n alpha =
  if k >= n then -1
  else begin
    let a = Array.unsafe_get arcs k in
    let q = conflict_in_row c s (c.occ.(a)) 0 c.occ_len.(a) alpha in
    if q >= 0 then (a lsl occ_shift) lor q
    else find_conflict c s arcs (k + 1) n alpha
  end

let rec repair_fix c s alpha budget flips =
  let arcs = c.slot_arcs.(s) in
  let w = find_conflict c s arcs 0 (Array.length arcs) alpha in
  if w < 0 then begin
    c.colors.(s) <- alpha;
    push_color_count c alpha;
    flips
  end
  else if flips >= budget then -1
  else begin
    let a = w lsr occ_shift and q = w land occ_mask in
    (* beta: a palette color absent on arc [a].  One exists: the arc's load
       counts the uncolored slot, so at most [palette - 1] of its occupants
       are colored. *)
    let used = c.scr.z_used in
    Array.fill used 0 c.palette 0;
    let row = c.occ.(a) in
    for j = 0 to c.occ_len.(a) - 1 do
      let x = Array.unsafe_get row j land occ_mask in
      if x <> s then used.(c.colors.(x)) <- 1
    done;
    let beta = first_free used c.palette 0 in
    if beta < 0 then -1 (* load accounting broken; bail out *)
    else begin
      let size = kempe_flip c ~alpha ~beta q in
      if flips + size > budget then -1 else repair_fix c s alpha budget (flips + size)
    end
  end

(* The slot is inserted in the occupancy but uncolored; make some color free
   on all its arcs by bounded Theorem-1-style Kempe flips and wear it.
   Returns the number of recolored dipaths, or -1 when the flip budget ran
   out (caller falls back to a full solve). *)
let try_repair c ~budget s =
  if c.palette = 0 then -1
  else begin
    let z = c.scr in
    ensure_color_cap z c.palette;
    (* alpha: the color with the fewest wearers along the slot's arcs. *)
    let cnt = z.z_cnt in
    Array.fill cnt 0 c.palette 0;
    let arcs = c.slot_arcs.(s) in
    for k = 0 to Array.length arcs - 1 do
      let a = Array.unsafe_get arcs k in
      let row = c.occ.(a) in
      for j = 0 to c.occ_len.(a) - 1 do
        let q = Array.unsafe_get row j land occ_mask in
        if q <> s then cnt.(c.colors.(q)) <- cnt.(c.colors.(q)) + 1
      done
    done;
    let alpha = argmin_color cnt c.palette 0 1 in
    repair_fix c s alpha budget 0
  end

let rec collect_class c d members i cnt =
  if i >= c.n_slots then cnt
  else if c.slot_live.(i) && c.colors.(i) = d then begin
    members.(cnt) <- i;
    collect_class c d members (i + 1) (cnt + 1)
  end
  else collect_class c d members (i + 1) cnt

let shrink_revert c d applied napp =
  for i = 0 to napp - 1 do
    let w = applied.(i) in
    let q = w lsr occ_shift and e = w land occ_mask in
    c.colors.(q) <- d;
    c.color_count.(d) <- c.color_count.(d) + 1;
    c.color_count.(e) <- c.color_count.(e) - 1
  done

(* Greedily recolor every member of class [d]; the undo log is packed
   [(slot lsl 31) lor new_color].  Returns the applied count, or -1 (after a
   full revert) when some member has no free color. *)
let rec shrink_go c d members nm applied i napp =
  if i >= nm then napp
  else begin
    let q = members.(i) in
    let z = c.scr in
    Array.fill z.z_used 0 c.palette 0;
    z.z_used.(d) <- 1;
    mark_neighbor_colors c q;
    let e = first_free z.z_used c.palette 0 in
    if e < 0 then begin
      shrink_revert c d applied napp;
      -1
    end
    else begin
      c.colors.(q) <- e;
      c.color_count.(d) <- c.color_count.(d) - 1;
      c.color_count.(e) <- c.color_count.(e) + 1;
      applied.(napp) <- (q lsl occ_shift) lor e;
      shrink_go c d members nm applied (i + 1) (napp + 1)
    end
  end

(* After a warm removal [palette] can exceed the (possibly lowered) load by
   one; empty the smallest color class by greedy recoloring to restore
   [palette = pi].  Fully reverted on failure. *)
let try_shrink c =
  let z = c.scr in
  ensure_color_cap z c.palette;
  ensure_slot_scratch z c.n_slots;
  let d = argmin_color c.color_count c.palette 0 1 in
  let nm = collect_class c d z.z_members 0 0 in
  if shrink_go c d z.z_members nm z.z_applied 0 0 < 0 then false
  else begin
    (* Class [d] is empty; keep colors contiguous by renaming the last one. *)
    let last = c.palette - 1 in
    if d <> last then begin
      for i = 0 to c.n_slots - 1 do
        if c.slot_live.(i) && c.colors.(i) = last then c.colors.(i) <- d
      done;
      c.color_count.(d) <- c.color_count.(last)
    end;
    c.color_count.(last) <- 0;
    c.palette <- last;
    true
  end

let go_dirty s =
  let c = s.core in
  c.dirty <- true;
  c.warm <- false;
  s.s_fallbacks <- s.s_fallbacks + 1;
  s.s_ev <- Flight.Fallback;
  Metrics.incr c_fallbacks

(* --- mutations ------------------------------------------------------------- *)

let count_op s =
  s.s_ops <- s.s_ops + 1;
  Metrics.incr c_ops;
  s.core.cached_report <- None

(* Post-op observability, shared by add and remove: latency into the
   session HDR + SLO (+ the gated global latency), the warm-hit window,
   the fallback streak, and one flight-recorder entry.  All int stores
   and lock-free atomics — the warm paths stay zero-minor-alloc. *)
let obs_op s kind lat gl t0 ~arcs =
  let c = s.core in
  let dur = Clock.now_ns () - t0 in
  let tr = Ctx.current_trace () in
  Hdr.record_traced lat dur ~trace:tr;
  Hdr.Slo.record s.slo dur;
  Metrics.observe gl dur;
  let ev = s.s_ev in
  let w =
    match ev with
    | Flight.Warm_hit | Flight.Fresh_color | Flight.Repair | Flight.Warm_remove
    | Flight.Shrink ->
      1
    | _ -> 0
  in
  let len = Array.length s.hit_ring in
  if s.hit_filled = len then
    s.hit_sum <- s.hit_sum - Array.unsafe_get s.hit_ring s.hit_idx
  else s.hit_filled <- s.hit_filled + 1;
  Array.unsafe_set s.hit_ring s.hit_idx w;
  s.hit_sum <- s.hit_sum + w;
  s.hit_idx <- (if s.hit_idx + 1 = len then 0 else s.hit_idx + 1);
  (match ev with
  | Flight.Fallback ->
    s.fb_streak <- s.fb_streak + 1;
    if s.fb_streak > s.max_fb_streak then s.max_fb_streak <- s.fb_streak
  | _ -> s.fb_streak <- 0);
  Flight.record s.flight kind ev ~t_ns:t0 ~dur_ns:dur ~arcs ~palette:c.palette
    ~pi:c.maxload ~trace:tr

(* A refused op still leaves a flight-recorder entry and fires the
   auto-dump latch: a client hitting validation errors is exactly when
   the recent-op tail is wanted. *)
let record_rejection s kind =
  let c = s.core in
  s.s_rejected <- s.s_rejected + 1;
  Flight.record s.flight kind Flight.Rejected ~t_ns:(Clock.now_ns ()) ~dur_ns:0
    ~arcs:0 ~palette:c.palette ~pi:c.maxload ~trace:(Ctx.current_trace ());
  Flight.trigger ~reason:"op rejected" s.flight

(* Insert an already-validated dipath; the shared tail of [add_path] and
   [add_dipath_exn]. *)
let add_body s p =
  let c = s.core in
  count_op s;
  let warm = c.warm && not c.dirty in
  let slot = new_slot c p in
  if not warm then begin
    c.dirty <- true;
    s.s_ev <- Flight.Dirty
  end
  else begin
    let col = free_color c slot in
    if col >= 0 then begin
      (* A free color implies the insertion did not push any arc past the
         palette, so palette = pi still holds. *)
      c.colors.(slot) <- col;
      push_color_count c col;
      s.s_warm_hits <- s.s_warm_hits + 1;
      s.s_ev <- Flight.Warm_hit;
      Metrics.incr c_warm_hits
    end
    else if c.maxload = c.palette + 1 then begin
      (* The new path completed a full rainbow arc: the optimum itself grew,
         so a fresh color keeps palette = pi. *)
      c.colors.(slot) <- c.palette;
      push_color_count c c.palette;
      c.palette <- c.palette + 1;
      s.s_fresh <- s.s_fresh + 1;
      s.s_ev <- Flight.Fresh_color;
      Metrics.incr c_fresh
    end
    else begin
      let flips = try_repair c ~budget:s.repair_budget slot in
      if flips >= 0 then begin
        s.s_repairs <- s.s_repairs + 1;
        s.s_repair_flips <- s.s_repair_flips + flips;
        s.s_ev <- Flight.Repair;
        Metrics.incr c_repairs;
        Metrics.observe h_cascade flips
      end
      else go_dirty s
    end
  end;
  slot

let add_instrumented s p =
  let t0 = Clock.now_ns () in
  let slot = add_body s p in
  obs_op s Flight.Add_path s.lat_add l_add t0
    ~arcs:(Array.length s.core.slot_arcs.(slot));
  slot

let add_traced s p =
  if Trace.enabled () then
    Trace.with_span "engine.add_path" (fun () -> add_instrumented s p)
  else add_instrumented s p

let add_path s verts =
  let c = s.core in
  match Dipath.of_vertices c.g verts with
  | Error msg ->
    record_rejection s Flight.Add_path;
    Error (Error.Invalid_path msg)
  | Ok p -> Ok (add_traced s p)

(* Validate a caller-built dipath against the session's private graph: every
   arc id in range, consecutive arcs chained head-to-tail, no vertex visited
   twice (stamp check).  O(length) and allocation-free on success; arc ids
   survive [create]'s graph copy, so dipaths built against the source
   instance's graph validate unchanged. *)
let rec check_chain c arcs k n m =
  if k >= n then ()
  else begin
    let a = arcs.(k) in
    if a < 0 || a >= m then
      Error.raise_error
        (Error.Invalid_path (Printf.sprintf "add_dipath: arc %d out of range" a));
    if k > 0 && Digraph.arc_src c.g a <> Digraph.arc_dst c.g arcs.(k - 1) then
      Error.raise_error
        (Error.Invalid_path
           (Printf.sprintf "add_dipath: arcs %d and %d do not chain" arcs.(k - 1) a));
    check_chain c arcs (k + 1) n m
  end

let stamp_vertex z g v =
  if z.z_vstamp.(v) = g then
    Error.raise_error
      (Error.Invalid_path (Printf.sprintf "add_dipath: repeated vertex %d" v));
  z.z_vstamp.(v) <- g

let rec check_distinct c z g arcs k n =
  if k >= n then ()
  else begin
    stamp_vertex z g (Digraph.arc_src c.g arcs.(k));
    check_distinct c z g arcs (k + 1) n
  end

let validate_dipath c p =
  let arcs = Dipath.unsafe_arc_array p in
  let n = Array.length arcs in
  check_chain c arcs 0 n (Digraph.n_arcs c.g);
  let z = c.scr in
  ensure_vertex_scratch z (Digraph.n_vertices c.g);
  z.z_gen <- z.z_gen + 1;
  check_distinct c z z.z_gen arcs 0 n;
  stamp_vertex z z.z_gen (Digraph.arc_dst c.g arcs.(n - 1))

let add_dipath_exn s p =
  let c = s.core in
  (try validate_dipath c p
   with Error.Error _ as e ->
     record_rejection s Flight.Add_path;
     raise e);
  add_traced s p

let add_dipath s p =
  match add_dipath_exn s p with
  | pid -> Ok pid
  | exception Error.Error e -> Error e

let remove_body s pid =
  let c = s.core in
  count_op s;
  let warm = c.warm && not c.dirty in
  occ_remove c pid;
  c.slot_live.(pid) <- false;
  c.n_live <- c.n_live - 1;
  if not warm then begin
    c.dirty <- true;
    s.s_ev <- Flight.Dirty
  end
  else begin
    let col = c.colors.(pid) in
    c.colors.(pid) <- -1;
    c.color_count.(col) <- c.color_count.(col) - 1;
    if c.color_count.(col) = 0 then begin
      let last = c.palette - 1 in
      if col <> last then begin
        for i = 0 to c.n_slots - 1 do
          if c.slot_live.(i) && c.colors.(i) = last then c.colors.(i) <- col
        done;
        c.color_count.(col) <- c.color_count.(last)
      end;
      c.color_count.(last) <- 0;
      c.palette <- last
    end;
    if c.palette > c.maxload then begin
      if try_shrink c then begin
        s.s_shrinks <- s.s_shrinks + 1;
        s.s_warm_removes <- s.s_warm_removes + 1;
        s.s_ev <- Flight.Shrink;
        Metrics.incr c_shrinks
      end
      else go_dirty s
    end
    else begin
      s.s_warm_removes <- s.s_warm_removes + 1;
      s.s_ev <- Flight.Warm_remove
    end
  end

let remove_instrumented s pid =
  let t0 = Clock.now_ns () in
  (* [slot_arcs] survives the removal; read the width before anyway so
     the record reflects what the op saw. *)
  let arcs = Array.length s.core.slot_arcs.(pid) in
  remove_body s pid;
  obs_op s Flight.Remove_path s.lat_remove l_remove t0 ~arcs

let remove_path_exn s pid =
  let c = s.core in
  if pid < 0 || pid >= c.n_slots then begin
    record_rejection s Flight.Remove_path;
    Error.raise_error (Error.Bad_index { what = "path"; index = pid })
  end
  else if not c.slot_live.(pid) then begin
    record_rejection s Flight.Remove_path;
    Error.raise_error
      (Error.Invalid_op (Printf.sprintf "path %d was already removed" pid))
  end
  else if Trace.enabled () then
    Trace.with_span "engine.remove_path" (fun () -> remove_instrumented s pid)
  else remove_instrumented s pid

let remove_path s pid =
  match remove_path_exn s pid with
  | () -> Ok ()
  | exception Error.Error e -> Error e

(* DFS reachability used to reject directed cycles on arc insertion.  A
   vertex is marked when pushed, so the stack never holds more than n. *)
let reaches g src dst =
  let n = Digraph.n_vertices g in
  let seen = Array.make n false in (* alloc-ok *)
  let stack = Array.make n 0 in (* alloc-ok *)
  let top = ref 0 in
  let enter w =
    if not seen.(w) then begin
      seen.(w) <- true;
      stack.(!top) <- w;
      incr top
    end
  in
  enter src;
  while !top > 0 && not seen.(dst) do
    decr top;
    Digraph.iter_succ enter g stack.(!top)
  done;
  seen.(dst)

let add_arc s u v =
  let c = s.core in
  let n = Digraph.n_vertices c.g in
  if u < 0 || u >= n then begin
    record_rejection s Flight.Add_arc;
    Error (Error.Bad_index { what = "vertex"; index = u })
  end
  else if v < 0 || v >= n then begin
    record_rejection s Flight.Add_arc;
    Error (Error.Bad_index { what = "vertex"; index = v })
  end
  else if u = v then begin
    record_rejection s Flight.Add_arc;
    Error (Error.Invalid_op "add_arc: self-loop")
  end
  else if Digraph.mem_arc c.g u v then begin
    record_rejection s Flight.Add_arc;
    Error (Error.Invalid_op "add_arc: duplicate arc")
  end
  else if reaches c.g v u then begin
    record_rejection s Flight.Add_arc;
    Error
      (Error.Cyclic
         (Printf.sprintf "adding arc %d -> %d would close a directed cycle" u v))
  end
  else begin
    count_op s;
    let a = Digraph.add_arc c.g u v in
    c.frozen <- None;
    ensure_arc_capacity c (a + 1);
    c.occ.(a) <- [||];
    c.occ_len.(a) <- 0;
    c.n_arcs <- a + 1;
    (* Arc ids are append-only, so cached dipath arc ids stay valid; only the
       classification can change — and an internal cycle appearing is exactly
       the Theorem-1 boundary, where the warm invariant stops being
       meaningful and the next query re-solves from scratch. *)
    let dag = Dag.of_digraph_exn c.g in
    c.classification <- Classify.classify dag;
    let had_cycle = c.has_cycle in
    c.has_cycle <- c.classification.Classify.n_internal_cycles > 0;
    if c.has_cycle && not had_cycle then begin
      c.warm <- false;
      c.dirty <- true
    end;
    if not (c.warm && not c.dirty) then c.dirty <- true;
    Ok a
  end

(* --- batched submission ---------------------------------------------------- *)

type batch = {
  outcomes : (op_outcome, Error.t) result array;
  batch_report : Solver.report;
  batch_stats : stats;
}

let apply_op s = function
  | Add_path verts -> Result.map (fun pid -> Path_added pid) (add_path s verts)
  | Remove_path pid -> Result.map (fun () -> Path_removed pid) (remove_path s pid)
  | Add_arc (u, v) -> Result.map (fun a -> Arc_added a) (add_arc s u v)

(* Left-to-right by construction: ops mutate the session, so evaluation
   order is semantics here, and the array init/map combinators leave it
   unspecified. *)
let apply_ops s ops =
  match ops with
  | [] -> [||]
  | first :: rest ->
    let out = Array.make (1 + List.length rest) (apply_op s first) in (* alloc-ok *)
    let rec go i = function
      | [] -> ()
      | op :: tl ->
        out.(i) <- apply_op s op;
        go (i + 1) tl
    in
    go 1 rest;
    out

let submit s ops =
  let run () =
    let outcomes = apply_ops s ops in
    let batch_report = report s in
    { outcomes; batch_report; batch_stats = stats s }
  in
  if Trace.enabled () then
    Trace.with_span
      ~args:[ ("ops", Trace.Int (List.length ops)) ]
      "engine.submit" run
  else run ()

(* --- invariant audit (for tests) ------------------------------------------- *)

let audit_core s =
  let c = s.core in
  let fail fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let check_occ () =
    let rec go a =
      if a >= c.n_arcs then Ok ()
      else begin
        let ok = ref (Ok ()) in
        for j = 0 to c.occ_len.(a) - 1 do
          let w = c.occ.(a).(j) in
          let q = w land occ_mask and k = w lsr occ_shift in
          if q < 0 || q >= c.n_slots || not c.slot_live.(q) then
            ok := fail "arc %d: dead occupant %d" a q
          else if c.slot_arcs.(q).(k) <> a then
            ok := fail "arc %d: back-pointer of slot %d is wrong" a q
          else if c.slot_pos.(q).(k) <> j then
            ok := fail "arc %d: position of slot %d is wrong" a q
        done;
        match !ok with Ok () -> go (a + 1) | e -> e
      end
    in
    go 0
  in
  let check_loads () =
    let loads = Array.make (max 1 c.n_arcs) 0 in (* alloc-ok *)
    for i = 0 to c.n_slots - 1 do
      if c.slot_live.(i) then
        Array.iter (fun a -> loads.(a) <- loads.(a) + 1) c.slot_arcs.(i)
    done;
    let rec go a =
      if a >= c.n_arcs then Ok ()
      else if loads.(a) <> c.occ_len.(a) then
        fail "arc %d: load %d but occ_len %d" a loads.(a) c.occ_len.(a)
      else go (a + 1)
    in
    match go 0 with
    | Error _ as e -> e
    | Ok () ->
      let m = Array.fold_left max 0 loads in
      if m <> c.maxload then fail "maxload %d but real max %d" c.maxload m else Ok ()
  in
  let check_warm () =
    if not (c.warm && not c.dirty) then Ok ()
    else begin
      let rec arcs_ok a =
        if a >= c.n_arcs then Ok ()
        else begin
          let seen = Array.make (max 1 c.palette) false in (* alloc-ok *)
          let clash = ref None in
          for j = 0 to c.occ_len.(a) - 1 do
            let col = c.colors.(c.occ.(a).(j) land occ_mask) in
            if col < 0 || col >= c.palette then clash := Some col
            else if seen.(col) then clash := Some col
            else seen.(col) <- true
          done;
          match !clash with
          | Some col -> fail "arc %d: color %d clashes or out of range" a col
          | None -> arcs_ok (a + 1)
        end
      in
      match arcs_ok 0 with
      | Error _ as e -> e
      | Ok () ->
        if c.palette <> c.maxload then
          fail "warm but palette %d <> pi %d" c.palette c.maxload
        else begin
          let rec counts_ok col =
            if col >= c.palette then Ok ()
            else if c.color_count.(col) <= 0 then fail "warm color %d unused" col
            else counts_ok (col + 1)
          in
          counts_ok 0
        end
    end
  in
  match check_occ () with
  | Error _ as e -> e
  | Ok () -> ( match check_loads () with Error _ as e -> e | Ok () -> check_warm ())

let audit s =
  match audit_core s with
  | Ok () -> Ok ()
  | Error msg ->
    (* The black box earns its keep here: the violation goes into the ring
       as its own record, then the auto-dump fires so the op tail that led
       to the broken invariant is preserved. *)
    let c = s.core in
    Flight.record s.flight Flight.Audit Flight.Failed ~t_ns:(Clock.now_ns ())
      ~dur_ns:0 ~arcs:0 ~palette:c.palette ~pi:c.maxload
      ~trace:(Ctx.current_trace ());
    Flight.trigger ~reason:("audit: " ^ msg) s.flight;
    Error msg

(* Deliberately break the load accounting so the next [audit] fails —
   the hook behind [wl session --inject-audit-failure] and the CI proof
   that a failing audit emits a flight dump.  Test-only: the session is
   unusable for real work afterwards. *)
let corrupt_for_testing s =
  let c = s.core in
  c.maxload <- c.maxload + 1

(* --- health ----------------------------------------------------------------- *)

type health = {
  healthy : bool;
  slo : Hdr.Slo.state;
  add_latency : Hdr.snapshot;
  remove_latency : Hdr.snapshot;
  add_exemplar : (int * int) option;
  remove_exemplar : (int * int) option;
  fallback_streak : int;
  max_fallback_streak : int;
  warm_hit_recent : float;
  warm_hit_lifetime : float;
  warm_drop : bool;
}

let flight s = s.flight
let add_hdr s = s.lat_add
let remove_hdr s = s.lat_remove

let health s =
  let st = stats s in
  let lifetime = hit_rate st in
  let recent =
    if s.hit_filled = 0 then 1.0
    else float_of_int s.hit_sum /. float_of_int s.hit_filled
  in
  (* Drop detection compares the recent window against the lifetime rate:
     a session that has always fallen back is (reportedly) sick through
     the SLO, not through a drop. *)
  let warm_drop =
    s.hit_filled >= 64 && lifetime > 0.05 && recent < 0.5 *. lifetime
  in
  let slo = Hdr.Slo.state s.slo in
  {
    healthy = (not slo.Hdr.Slo.tripped) && (not warm_drop) && s.fb_streak < 8;
    slo;
    add_latency = Hdr.snapshot s.lat_add;
    remove_latency = Hdr.snapshot s.lat_remove;
    add_exemplar = Hdr.exemplar s.lat_add;
    remove_exemplar = Hdr.exemplar s.lat_remove;
    fallback_streak = s.fb_streak;
    max_fallback_streak = s.max_fb_streak;
    warm_hit_recent = recent;
    warm_hit_lifetime = lifetime;
    warm_drop;
  }

let pp_health ppf h =
  Format.fprintf ppf "@[<v>health: %s%s@,%a@,add: %a@,remove: %a@,%s"
    (if h.healthy then "ok" else "DEGRADED")
    (if h.warm_drop then " (warm-hit rate dropped)" else "")
    Hdr.Slo.pp h.slo Hdr.pp_ns h.add_latency Hdr.pp_ns h.remove_latency
    (Printf.sprintf "warm-hit recent %.2f lifetime %.2f; fallback streak %d (max %d)"
       h.warm_hit_recent h.warm_hit_lifetime h.fallback_streak
       h.max_fallback_streak);
  Format.fprintf ppf "@]"
