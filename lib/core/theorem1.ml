open Wl_digraph
module Dag = Wl_dag.Dag
module Metrics = Wl_obs.Metrics
module Trace = Wl_obs.Trace
module Arena = Wl_util.Arena
module Flat = Wl_util.Flat

(* Solver-internals counters (all no-ops until [Metrics.set_enabled]).
   The case names follow the paper's proof of Theorem 1: a same-colored
   pair at an insertion is resolved by a Kempe flip that either stays away
   from the protected dipath (case A), would revisit an already-flipped
   dipath (case B — impossible, the stamp assert enforces it; the counter
   records how many times the guard was exercised), or reaches the
   protected dipath (case C: an internal cycle exists and we abort). *)
let c_arcs_peeled = Metrics.counter "thm1.arcs_peeled"
let c_case_a = Metrics.counter "thm1.case_a_flips"
let c_case_b = Metrics.counter "thm1.case_b_checks"
let c_case_c = Metrics.counter "thm1.case_c_aborts"
let c_fresh = Metrics.counter "thm1.fresh_colors"
let h_cascade = Metrics.histogram "thm1.cascade_len"

exception
  Internal_cycle_encountered of {
    chain : int list;
    junction : Digraph.vertex;
  }

(* The solver state is all flat arrays, and it is a reusable *scratch*:
   binding an instance sizes the buffers (via the session arena, grow-
   only), and a repeat solve of the same instance performs zero
   allocation — every per-round mark uses generation stamps
   ([mark.(x) = gen] means "marked in the current round") and the
   generation counter is never reset, so stale contents from earlier
   rounds or earlier instances can never collide with a fresh stamp.

   Non-flambda discipline for the hot loops below: no local [ref]s and
   no environment-capturing local closures (both allocate); loop state
   lives in mutable fields or threads through top-level tail-recursive
   helpers. *)
type scratch = {
  arena : Arena.t;
  mutable bound : Instance.t option; (* instance the buffers fit, == compared *)
  (* Per-bind caches (rebuilt only when a different instance is bound). *)
  mutable graph : Digraph.t; (* the bound instance's graph *)
  mutable n_paths : int;
  mutable n_arcs : int;
  mutable p_arcs : int array array;
      (* arc ids of each family dipath, front to back — rows borrowed
         from the dipaths themselves, never mutated here *)
  mutable order : Digraph.arc array; (* arcs by tail topological position *)
  mutable off : Flat.t; (* CSR offsets, shared with the instance *)
  mutable ids : Flat.t; (* CSR member ids, shared with the instance *)
  (* Live occupancy, CSR-shaped over the instance index: the occupants of
     arc [a] are [occ.(off.(a)) .. off.(a) + occ_len.(a) - 1].  Occupancy
     only grows, and occupants of [a] are always a subset of the family
     members through [a], so the instance offsets fit exactly.  Both
     tables are Bigarray-backed: instance-sized, off the OCaml heap. *)
  mutable occ : Flat.t;
  mutable occ_len : Flat.t;
  (* Arena-backed per-member scratch, capacity >= n_paths. *)
  mutable start_pos : int array; (* first live arc index; = length when inactive *)
  mutable seen : int array; (* per member: stamp for conflict dedup *)
  mutable visit : int array; (* per member: stamp for Kempe BFS discovery *)
  mutable flipped : int array; (* per member: stamp asserting single recoloring *)
  mutable parent : int array; (* per member: Kempe BFS tree, valid when visited *)
  mutable queue : int array; (* Kempe BFS queue, capacity n_paths *)
  mutable conflicts : int array; (* live_conflicts output, capacity n_paths *)
  mutable members : int array; (* live members of the arc being inserted *)
  (* Per color, one packed word: high bits the duplicate-detection stamp,
     low 31 bits the member last seen wearing the color.  Colors never
     reach n_paths (palette = running max load), and the stamp is the
     shared generation counter — a solver would need ~2^31 generations
     to overflow the packing, far beyond any real run. *)
  mutable colw : int array;
  (* The solve's output, exactly n_paths long (arena buffers are rounded
     up, and Assignment checks lengths), -1 while uncolored. *)
  mutable color_buf : int array;
  mutable palette : int; (* current number of colors = running max load *)
  mutable gen : int; (* shared generation counter for all stamp scratch *)
  (* Hot-loop cursors (fields, not refs: a local [float]/[int ref]
     allocates without flambda). *)
  mutable head : int; (* Kempe BFS queue head *)
  mutable tail : int; (* Kempe BFS queue tail *)
  mutable next_free : int; (* fresh-color cursor during insertion *)
}

let owner_mask = (1 lsl 31) - 1

let empty_flat = Flat.create 0

let scratch () =
  {
    arena = Arena.create ();
    bound = None;
    graph = Digraph.create ();
    n_paths = 0;
    n_arcs = 0;
    p_arcs = [||];
    order = [||];
    off = empty_flat;
    ids = empty_flat;
    occ = empty_flat;
    occ_len = empty_flat;
    start_pos = [||];
    seen = [||];
    visit = [||];
    flipped = [||];
    parent = [||];
    queue = [||];
    conflicts = [||];
    members = [||];
    colw = [||];
    color_buf = [||];
    palette = 0;
    gen = 0;
    head = 0;
    tail = 0;
    next_free = 0;
  }

(* Bind the scratch to an instance: size every buffer, cache the per-
   instance data.  Cold (allocates); skipped entirely when the same
   instance is solved again. *)
let bind st inst =
  let g = Instance.graph inst in
  let n = Instance.n_paths inst in
  let m = Digraph.n_arcs g in
  let off, ids = Instance.csr_index inst in
  st.bound <- Some inst;
  st.graph <- g;
  st.n_paths <- n;
  st.n_arcs <- m;
  (* Rows borrowed from the dipaths — no copies. *)
  st.p_arcs <- Array.init n (fun i -> Dipath.unsafe_arc_array (Instance.path inst i)); (* alloc-ok *)
  st.order <- Dag.arcs_by_tail_topo (Instance.dag inst);
  st.off <- off;
  st.ids <- ids;
  let occ_cap = Flat.length ids in
  if Flat.length st.occ < occ_cap then st.occ <- Flat.create occ_cap;
  if Flat.length st.occ_len < max 1 m then st.occ_len <- Flat.create (max 1 m);
  Arena.reset st.arena;
  let cap = max 1 n in
  st.start_pos <- Arena.ints st.arena cap;
  st.seen <- Arena.ints st.arena cap;
  st.visit <- Arena.ints st.arena cap;
  st.flipped <- Arena.ints st.arena cap;
  st.parent <- Arena.ints st.arena cap;
  st.queue <- Arena.ints st.arena cap;
  st.conflicts <- Arena.ints st.arena cap;
  st.members <- Arena.ints st.arena cap;
  st.colw <- Arena.ints st.arena cap;
  if Array.length st.color_buf <> n then st.color_buf <- Array.make n (-1); (* alloc-ok *)
  (* Stamp buffers may hold garbage >= the current generation when the
     arena slots were grown fresh (zeros are fine, [gen] only moves up)
     or inherited from another life.  One bulk clear per bind keeps the
     stamp invariant ("stale < next fresh gen") honest without ever
     resetting [gen]. *)
  let z = st.gen in
  Array.fill st.seen 0 (Array.length st.seen) z;
  Array.fill st.visit 0 (Array.length st.visit) z;
  Array.fill st.flipped 0 (Array.length st.flipped) z;
  Array.fill st.colw 0 (Array.length st.colw) (z lsl 31)

let next_gen st =
  st.gen <- st.gen + 1;
  st.gen

let is_live st p = st.start_pos.(p) < Array.length st.p_arcs.(p)

(* Live family indices conflicting with [p] (sharing a live arc), written
   into [st.conflicts]; returns their count.  Top-level tail recursion
   instead of nested closures/refs: alloc-free. *)
let rec occ_scan st g j stop cnt =
  if j >= stop then cnt
  else begin
    let q = Flat.unsafe_get st.occ j in
    if st.seen.(q) <> g then begin
      st.seen.(q) <- g;
      st.conflicts.(cnt) <- q;
      occ_scan st g (j + 1) stop (cnt + 1)
    end
    else occ_scan st g (j + 1) stop cnt
  end

let rec arc_scan st g arcs k n cnt =
  if k >= n then cnt
  else begin
    let a = arcs.(k) in
    let base = Flat.unsafe_get st.off a in
    let stop = base + Flat.unsafe_get st.occ_len a in
    arc_scan st g arcs (k + 1) n (occ_scan st g base stop cnt)
  end

let live_conflicts st p =
  let g = next_gen st in
  st.seen.(p) <- g;
  let arcs = st.p_arcs.(p) in
  arc_scan st g arcs st.start_pos.(p) (Array.length arcs) 0

(* Error-path only: reconstruct the BFS chain from [p1] down to [q]. *)
let chain_to st q =
  let rec go v acc =
    let p = st.parent.(v) in
    if p = v then v :: acc else go p (v :: acc)
  in
  go q []

(* Flip the Kempe component of [p1] in the {alpha, beta} conflict subgraph,
   leaving [protected_p] untouched.  If the component reaches [protected_p],
   raise with the BFS chain from p1 to it (the paper's case C). *)
let kempe_flip st ~protected_p ~junction ~alpha ~beta p1 =
  let g = next_gen st in
  st.visit.(p1) <- g;
  st.parent.(p1) <- p1;
  st.head <- 0;
  st.queue.(0) <- p1;
  st.tail <- 1;
  while st.head < st.tail do
    let p = st.queue.(st.head) in
    st.head <- st.head + 1;
    (* Proof case B: a dipath is never recolored twice. *)
    assert (st.flipped.(p) <> g);
    st.flipped.(p) <- g;
    let other = if st.color_buf.(p) = alpha then beta else alpha in
    let n_conf = live_conflicts st p in
    for i = 0 to n_conf - 1 do
      let q = st.conflicts.(i) in
      if st.color_buf.(q) = other && st.visit.(q) <> g then begin
        st.visit.(q) <- g;
        st.parent.(q) <- p;
        if q = protected_p then begin
          Metrics.incr c_case_c;
          raise (Internal_cycle_encountered { chain = chain_to st q; junction })
        end;
        st.queue.(st.tail) <- q;
        st.tail <- st.tail + 1
      end
    done;
    st.color_buf.(p) <- other
  done;
  (* [st.tail] dipaths were discovered and flipped: the cascade length. *)
  Metrics.incr c_case_a;
  Metrics.add c_case_b st.tail;
  Metrics.observe h_cascade st.tail

(* First pair of members wearing the same color, packed as
   [(p0 lsl 31) lor p1]; -1 when the member set is rainbow.  Packing
   instead of an option: this runs once per insertion even in the happy
   case, and [Some (p0, p1)] would be the hot path's only allocation. *)
let rec violated_from st g i n_members =
  if i >= n_members then -1
  else begin
    let p = st.members.(i) in
    let c = st.color_buf.(p) in
    let w = st.colw.(c) in
    if w asr 31 = g then ((w land owner_mask) lsl 31) lor p
    else begin
      st.colw.(c) <- (g lsl 31) lor p;
      violated_from st g (i + 1) n_members
    end
  end

let distinct_violated st n_members =
  let g = next_gen st in
  violated_from st g 0 n_members

let rec first_free_color st g c =
  if c >= st.palette then
    invalid_arg "Theorem1: no free color (load accounting broken)"
  else if st.colw.(c) asr 31 = g then first_free_color st g (c + 1)
  else c

(* Make all live dipaths through the about-to-be-inserted arc use pairwise
   distinct colors, by repeated Kempe flips.  The members are the first
   [n_members] entries of [st.members], live, in ascending family order. *)
let rec make_rainbow st ~junction n_members =
  let v = distinct_violated st n_members in
  if v >= 0 then begin
    let p0 = v asr 31 and p1 = v land owner_mask in
    let alpha = st.color_buf.(p0) in
    (* beta: a palette color unused by the whole member set. *)
    let g = next_gen st in
    for i = 0 to n_members - 1 do
      st.colw.(st.color_buf.(st.members.(i))) <- g lsl 31
    done;
    let beta = first_free_color st g 0 in
    kempe_flip st ~protected_p:p0 ~junction ~alpha ~beta p1;
    make_rainbow st ~junction n_members
  end

(* Collect the live members of the CSR slice [j, hi) into [st.members],
   starting at slot [k]; returns the member count. *)
let rec collect_live st j hi k =
  if j >= hi then k
  else begin
    let p = Flat.unsafe_get st.ids j in
    if is_live st p then begin
      st.members.(k) <- p;
      collect_live st (j + 1) hi (k + 1)
    end
    else collect_live st (j + 1) hi k
  end

let insert_arc st e =
  let lo = Flat.unsafe_get st.off e in
  let hi = Flat.unsafe_get st.off (e + 1) in
  if hi > lo then begin
    Metrics.incr c_arcs_peeled;
    if hi - lo > st.palette then st.palette <- hi - lo;
    let n_members = collect_live st lo hi 0 in
    make_rainbow st ~junction:(Digraph.arc_dst st.graph e) n_members;
    (* Extend every dipath through [e] over it; newly activated ones get the
       palette colors not used by the live members. *)
    let g = next_gen st in
    for i = 0 to n_members - 1 do
      st.colw.(st.color_buf.(st.members.(i))) <- g lsl 31
    done;
    st.next_free <- 0;
    for j = lo to hi - 1 do
      let p = Flat.unsafe_get st.ids j in
      if not (is_live st p) then begin
        (* Fresh color: next palette slot not worn by a live member. *)
        while st.colw.(st.next_free) asr 31 = g do
          st.next_free <- st.next_free + 1
        done;
        st.color_buf.(p) <- st.next_free;
        st.next_free <- st.next_free + 1;
        Metrics.incr c_fresh
      end;
      let k = st.start_pos.(p) - 1 in
      assert (st.p_arcs.(p).(k) = e);
      st.start_pos.(p) <- k;
      Flat.unsafe_set st.occ (lo + Flat.unsafe_get st.occ_len e) p;
      Flat.unsafe_set st.occ_len e (Flat.unsafe_get st.occ_len e + 1)
    done
  end

let solve st =
  (* Per-round reset: fills only, no allocation. *)
  for p = 0 to st.n_paths - 1 do
    st.start_pos.(p) <- Array.length st.p_arcs.(p);
    st.color_buf.(p) <- -1
  done;
  Flat.fill st.occ_len 0;
  st.palette <- 0;
  for i = Array.length st.order - 1 downto 0 do
    insert_arc st st.order.(i)
  done;
  (* Every dipath is fully live and colored now. *)
  for p = 0 to st.n_paths - 1 do
    assert (st.color_buf.(p) >= 0 || Array.length st.p_arcs.(p) = 0)
  done;
  st.color_buf

let bind_and_solve st inst =
  (match st.bound with
  | Some i when i == inst -> ()
  | _ -> bind st inst);
  solve st

let color_with st inst =
  if Trace.enabled () then
    Trace.with_span
      ~args:[ ("paths", Trace.Int (Instance.n_paths inst)) ]
      "thm1.color"
      (fun () -> bind_and_solve st inst)
  else bind_and_solve st inst

(* [color] keeps its fresh-array contract via a domain-local scratch:
   callers own the copy, repeat solves of the same instance only pay for
   it (the solve itself is allocation-free).  The scratch retains the
   most recently solved instance per domain — bounded, and the price of
   warm repeat solves. *)
let dls_scratch = Domain.DLS.new_key scratch

let color inst = Array.copy (color_with (Domain.DLS.get dls_scratch) inst)

let color_result inst =
  match color inst with
  | assignment -> Ok assignment
  | exception Internal_cycle_encountered { chain; junction } ->
    Error (chain, junction)

(* The paper's case-C extraction (its Figure 4): follow the chain of
   pairwise-conflicting dipaths around, from the junction back to the
   junction; every arc traversed an odd number of times survives into a
   non-empty even subgraph whose vertices all lie on the walk — and every
   walk vertex has both a predecessor and a successor in G (interval
   endpoints head shared arcs, interior vertices are path-interior), so any
   undirected cycle of the parity subgraph is an internal cycle.

   The arc-parity set is a stamp array scoped on the domain scratch's
   arena (mark/release), not a per-call hashtable: witness extraction
   after a case-C abort reuses the same buffer run after run. *)
let witness_internal_cycle inst ~chain ~junction =
  let g = Instance.graph inst in
  match chain with
  | [] | [ _ ] -> None
  | p0 :: _ ->
    let m = List.length chain in
    (* Direct construction — no intermediate [List.map] list. *)
    let paths = Array.make m (Instance.path inst p0) in (* alloc-ok *)
    List.iteri (fun i pid -> paths.(i) <- Instance.path inst pid) chain;
    let first_shared i =
      let rec go = function
        | [] -> None
        | a :: rest -> if Dipath.mem_arc paths.(i + 1) a then Some a else go rest
      in
      go (Dipath.arcs paths.(i))
    in
    let st = Domain.DLS.get dls_scratch in
    let arena_mark = Arena.mark st.arena in
    let parity = Arena.ints st.arena (max 1 (Digraph.n_arcs g)) in
    (* Stamped parity: arc [a] is odd iff [parity.(a) = odd].  The fresh
       generation exceeds anything stale in the reused buffer, and 0 is
       below it, so flipping between [odd] and 0 needs no clearing. *)
    let odd = next_gen st in
    let n_odd = ref 0 in
    let flip a =
      if parity.(a) = odd then begin
        parity.(a) <- 0;
        decr n_odd
      end
      else begin
        parity.(a) <- odd;
        incr n_odd
      end
    in
    let add_segment path u v =
      match (Dipath.vertex_index path u, Dipath.vertex_index path v) with
      | Some iu, Some iv ->
        let lo = min iu iv and hi = max iu iv in
        let arcs = Dipath.unsafe_arc_array path in
        for k = lo to hi - 1 do
          flip arcs.(k)
        done;
        true
      | _ -> false
    in
    let ok = ref true in
    let enter = ref junction in
    for i = 0 to m - 1 do
      let exit_v =
        if i = m - 1 then Some junction
        else Option.map (Digraph.arc_src g) (first_shared i)
      in
      match exit_v with
      | None -> ok := false
      | Some v ->
        if not (add_segment paths.(i) !enter v) then ok := false;
        enter := v
    done;
    let result =
      if (not !ok) || !n_odd = 0 then None
      else Traversal.undirected_cycle ~keep_arc:(fun a -> parity.(a) = odd) g
    in
    Arena.release st.arena arena_mark;
    result
