open Wl_digraph
module Dag = Wl_dag.Dag
module Upp = Wl_dag.Upp
module Metrics = Wl_obs.Metrics
module Trace = Wl_obs.Trace
module Clock = Wl_obs.Clock
module Saturating = Wl_util.Saturating
module Scan = Wl_util.Scan

type request = Digraph.vertex * Digraph.vertex

(* routing.* instruments: all gated on Metrics.set_enabled, so the stage
   costs one atomic load per update when observability is off. *)
let c_requests = Metrics.counter "routing.requests"
let c_unroutable = Metrics.counter "routing.unroutable"
let c_swaps = Metrics.counter "routing.swaps"
let c_rounds = Metrics.counter "routing.rounds"
let h_alternatives = Metrics.histogram "routing.alternatives"
let l_select = Metrics.histogram "routing.select.ns"

let unroutable ?index (x, y) =
  let where =
    match index with
    | None -> ""
    | Some i -> Printf.sprintf " (position %d)" i
  in
  Error.Invalid_path
    (Printf.sprintf "request (%d, %d)%s is not routable" x y where)

let check_request n _i (x, y) =
  if x < 0 || x >= n then
    Error (Error.Bad_index { what = "request source vertex"; index = x })
  else if y < 0 || y >= n then
    Error (Error.Bad_index { what = "request destination vertex"; index = y })
  else Ok ()

let collect_routes route requests =
  let rec go i acc = function
    | [] -> Ok (List.rev acc)
    | r :: rest -> (
      match route r with
      | Some p -> go (i + 1) (p :: acc) rest
      | None ->
        Metrics.incr c_unroutable;
        Error (unroutable ~index:i r))
  in
  go 0 [] requests

(* In-place heapsort of [buf.(0 .. len-1)] by increasing [key.(v)].
   Topological positions are distinct, so sorting a vertex set by them
   gives one order whatever order the set was collected in. *)
let rec sift key buf i len =
  let l = (2 * i) + 1 in
  if l < len then begin
    let c = if l + 1 < len && key.(buf.(l + 1)) > key.(buf.(l)) then l + 1 else l in
    if key.(buf.(c)) > key.(buf.(i)) then begin
      let t = buf.(i) in
      buf.(i) <- buf.(c);
      buf.(c) <- t;
      sift key buf c len
    end
  end

let sort_by key buf len =
  for i = (len / 2) - 1 downto 0 do
    sift key buf i len
  done;
  for last = len - 1 downto 1 do
    let t = buf.(0) in
    buf.(0) <- buf.(last);
    buf.(last) <- t;
    sift key buf 0 last
  done

(* Breadth-first from [buf.(0 .. len-1)]: [walk enter g v] offers [enter]
   each neighbour of [v], and [enter] appends what it accepts (and marks)
   to [buf] through [len].  Returns the final length. *)
let bfs_into walk enter g buf len =
  let i = ref 0 in
  while !i < !len do
    walk enter g buf.(!i);
    incr i
  done;
  !len

(* --- k-shortest dipaths: one reverse-topological sweep ---------------------

   The order is (hop count, lexicographic vertex sequence).  Two dipaths
   v.Q and v.Q' out of one vertex compare as their tails Q and Q' do, so
   v's k best dipaths to dst are v prepended to the first k of its
   successors' k best lists, merged: heads from different successors w, w'
   compare by (hops, w).  Sweeping the vertices of src-dst dipaths in
   reverse topological order builds every list, each entry sharing its
   tail.  Marks are stamped per call, so one scratch serves many calls. *)

(* [arc] leads from [v] to [tail.v]; dst's own entry has none. *)
type entry = { v : Digraph.vertex; arc : Digraph.arc; hops : int; tail : entry }

let rec nil = { v = -1; arc = -1; hops = -1; tail = nil }

type sweep = {
  dag : Dag.t;
  pos : int array;  (* topological positions *)
  anc : int array;  (* = stamp: an ancestor of dst no earlier than src *)
  reg : int array;  (* = stamp: also reached from src *)
  buf : int array;  (* the ancestors, then the region *)
  best : entry list array;  (* k best dipaths to dst; [] between calls *)
  into : int array;  (* the arc in from the vertex swept, or from the seed's parent *)
  bott : int array;  (* the seed's label (bottleneck, hops) *)
  hop : int array;
  mutable stamp : int;
}

let sweep_scratch d =
  let n = Dag.n_vertices d in
  let ints () = Array.make n 0 in
  { dag = d; pos = Array.init n (Dag.topo_position d); anc = ints (); reg = ints ();
    buf = ints (); best = Array.make n []; into = ints (); bott = ints (); hop = ints ();
    stamp = 0 }

(* Callers ask for one request at a time, so a spare scratch, taken
   atomically and kept for the last DAG, spares them O(n) arrays per call. *)
let spare = Atomic.make None

let with_sweep d f =
  let s =
    match Atomic.exchange spare None with
    | Some s when s.dag == d -> s
    | _ -> sweep_scratch d
  in
  let r = f s in
  Atomic.set spare (Some s);
  r

(* The vertices on some src-dst dipath, i.e. the ancestors of dst that src
   reaches, into [s.buf] in topological order; returns their count. *)
let region s src dst =
  s.stamp <- s.stamp + 1;
  let e = s.stamp and g = Dag.graph s.dag and pos = s.pos and buf = s.buf in
  let len = ref 1 in
  let lo = pos.(src) in
  let enter_anc u =
    if s.anc.(u) <> e && pos.(u) >= lo then begin
      s.anc.(u) <- e;
      buf.(!len) <- u;
      incr len
    end
  in
  s.anc.(dst) <- e;
  buf.(0) <- dst;
  ignore (bfs_into Digraph.iter_pred enter_anc g buf len);
  if s.anc.(src) <> e then 0
  else begin
    let enter_reg w =
      if s.anc.(w) = e && s.reg.(w) <> e then begin
        s.reg.(w) <- e;
        buf.(!len) <- w;
        incr len
      end
    in
    s.reg.(src) <- e;
    buf.(0) <- src;
    len := 1;
    let r = bfs_into Digraph.iter_succ enter_reg g buf len in
    sort_by pos buf r;
    r
  end

(* The first k of two sorted lists of tails out of disjoint sets of
   successors, whose heads therefore compare by (hops, first vertex). *)
let rec merge k a b =
  match (a, b) with
  | _ when k = 0 -> []
  | [], l | l, [] -> List.filteri (fun i _ -> i < k) l
  | t :: a', t' :: b' ->
    if t.hops < t'.hops || (t.hops = t'.hops && t.v < t'.v) then t :: merge (k - 1) a' b
    else t' :: merge (k - 1) a b'

(* The dipath of an entry, from the vertices and arcs the sweep linked. *)
let dipath_of_entry e =
  let verts = Array.make (e.hops + 1) 0 and arcs = Array.make e.hops 0 in
  let rec fill i e =
    verts.(i) <- e.v;
    if e.tail != nil then begin
      arcs.(i) <- e.arc;
      fill (i + 1) e.tail
    end
  in
  fill 0 e;
  Dipath.unsafe_of_arrays verts arcs

let k_shortest ?(k = 8) d src dst =
  if k <= 0 || src = dst then []
  else
    with_sweep d @@ fun s ->
    let g = Dag.graph d in
    let acc = ref [] in
    let merge_out a =
      let w = Digraph.arc_dst g a in
      if s.reg.(w) = s.stamp then begin
        s.into.(w) <- a;
        acc := merge k !acc s.best.(w)
      end
    in
    let best v =
      if v = dst then [ { v; arc = -1; hops = 0; tail = nil } ]
      else begin
        acc := [];
        Digraph.iter_out_arcs merge_out g v;
        List.map (fun t -> { v; arc = s.into.(t.v); hops = t.hops + 1; tail = t }) !acc
      end
    in
    let r = region s src dst in
    for i = r - 1 downto 0 do
      s.best.(s.buf.(i)) <- best s.buf.(i)
    done;
    let paths = List.map dipath_of_entry s.best.(src) in
    for i = 0 to r - 1 do
      s.best.(s.buf.(i)) <- []
    done;
    paths

let shortest_dipath d src dst =
  match k_shortest ~k:1 d src dst with p :: _ -> Some p | [] -> None

let route_shortest d requests =
  collect_routes (fun (x, y) -> shortest_dipath d x y) requests

(* --- the seed: a topological DP over the request's region -----------------

   A label is a pair (bottleneck load, hop count), ordered
   lexicographically; arc a extends (b, h) to (max b load(a), h + 1).
   src's label is (0, 0) and every other vertex's is the least extension
   of its predecessors' labels, so one sweep of the region (the vertices
   on src-dst dipaths, the only ones that lead to dst) in topological
   order sets each label after its predecessors'.  Predecessors giving
   equal labels have equal hop counts; the parent is the least of them
   by (bottleneck, vertex).  A label-setting search that pops the least
   (bottleneck, hops, vertex) and keeps the first of equal relaxations
   settles them in that order, so the route is the one it finds, a
   deterministic function of the graph and the load vector.  The
   bottleneck is the least over all src-dst dipaths; the hop count only
   breaks ties. *)

let seed_path s load src dst =
  let r = if src = dst then 0 else region s src dst in
  if r = 0 then None
  else begin
    let g = Dag.graph s.dag and buf = s.buf and e = s.stamp in
    let bott = s.bott and hop = s.hop and into = s.into in
    for i = 1 to r - 1 do
      bott.(buf.(i)) <- max_int
    done;
    bott.(src) <- 0;
    hop.(src) <- 0;
    let v = ref src in
    let relax a =
      let w = Digraph.arc_dst g a in
      if s.reg.(w) = e then begin
        let u = !v in
        let b = if load.(a) > bott.(u) then load.(a) else bott.(u) and h = hop.(u) + 1 in
        if
          b < bott.(w)
          || b = bott.(w)
             && (h < hop.(w)
                || h = hop.(w)
                   &&
                   let p = Digraph.arc_src g into.(w) in
                   bott.(u) < bott.(p) || (bott.(u) = bott.(p) && u < p))
        then begin
          bott.(w) <- b;
          hop.(w) <- h;
          into.(w) <- a
        end
      end
    in
    (* dst comes last, and no arc out of it stays in the region *)
    for i = 0 to r - 2 do
      v := buf.(i);
      Digraph.iter_out_arcs relax g !v
    done;
    let len = hop.(dst) in
    let verts = Array.make (len + 1) src and arcs = Array.make len 0 in
    let w = ref dst in
    for i = len - 1 downto 0 do
      let a = into.(!w) in
      verts.(i + 1) <- !w;
      arcs.(i) <- a;
      w := Digraph.arc_src g a
    done;
    Some (Dipath.unsafe_of_arrays verts arcs)
  end

let min_load_router d =
  let n = Dag.n_vertices d in
  let load = Array.make (max 1 (Dag.n_arcs d)) 0 in
  fun (x, y) ->
    match check_request n 0 (x, y) with
    | Error e -> Error e
    | Ok () -> (
      match with_sweep d (fun s -> seed_path s load x y) with
      | None ->
        Metrics.incr c_unroutable;
        Error (unroutable (x, y))
      | Some p ->
        Array.iter (fun a -> load.(a) <- load.(a) + 1) (Dipath.unsafe_arc_array p);
        Ok p)

let route_min_load d requests =
  let router = min_load_router d in
  let rec go i acc = function
    | [] -> Ok (List.rev acc)
    | r :: rest -> (
      match router r with
      | Ok p -> go (i + 1) (p :: acc) rest
      | Error (Error.Invalid_path _) -> Error (unroutable ~index:i r)
      | Error e -> Error e)
  in
  go 0 [] requests

(* --- routing-aware lower bound ---------------------------------------------

   The computable side of the global packing number (Lo-Zhang-Wong-Fu):
   every routing of the requests has maximum arc load at least

     max( ceil(sum of shortest-path hops / m),          volume bound
          max over arcs of #requests forced through )   forced-arc bound

   An arc (u, v) is forced for request (x, y) when every x-y dipath uses
   it, i.e. #paths(x, u) * #paths(v, y) = #paths(x, y): in a DAG a path
   into u and a path out of v cannot intersect, so the product counts
   exactly the dipaths through the arc.  A forced arc lies on every x-y
   dipath, so only the arcs of one hop-shortest dipath need the test, and
   its length is the volume term.  Counts saturate; a saturated total
   conservatively reads as "nothing forced", which only weakens the
   bound, never invalidates it. *)

let lower_bound d requests =
  let g = Dag.graph d in
  let n = Digraph.n_vertices g in
  let m = Digraph.n_arcs g in
  if requests = [] || m = 0 then 0
  else
    Trace.with_span "routing.bound" @@ fun () ->
    let in_range (x, y) = x >= 0 && x < n && y >= 0 && y < n && x <> y in
    let pos = Array.init n (Dag.topo_position d) in
    (* [buf] holds one sweep's vertices: a BFS queue, then sorted into
       topological order. *)
    let buf = Array.make n 0 and len = ref 0 in
    (* Requests are taken grouped by source.  For the current source x,
       [reach.(v) = x] marks what x reaches, [parent] holds BFS parent arcs
       and [fwd] #paths(x, v), swept over those vertices. *)
    let reach = Array.make n (-1) and parent = Array.make n (-1) in
    let fwd = Array.make n Saturating.zero in
    let src = ref 0 and cur = ref 0 in
    let visit a =
      let w = Digraph.arc_dst g a in
      if reach.(w) <> !src then begin
        reach.(w) <- !src;
        parent.(w) <- a;
        fwd.(w) <- Saturating.zero;
        buf.(!len) <- w;
        incr len
      end
    in
    let push w = fwd.(w) <- Saturating.add fwd.(w) fwd.(!cur) in
    let from x =
      src := x;
      reach.(x) <- x;
      fwd.(x) <- Saturating.one;
      buf.(0) <- x;
      len := 1;
      let r = bfs_into Digraph.iter_out_arcs visit g buf len in
      sort_by pos buf r;
      for i = 0 to r - 1 do
        cur := buf.(i);
        Digraph.iter_succ push g !cur
      done
    in
    (* #paths(v, y), swept once per destination over y's ancestors, which
       [mark.(v) = y] marks. *)
    let mark = Array.make n (-1) in
    let into_cache = Hashtbl.create 8 in
    let dst = ref 0 and paths = ref [||] in
    let enter u =
      if mark.(u) <> !dst then begin
        mark.(u) <- !dst;
        buf.(!len) <- u;
        incr len
      end
    in
    let pull w = !paths.(!cur) <- Saturating.add !paths.(!cur) !paths.(w) in
    let into y =
      match Hashtbl.find_opt into_cache y with
      | Some paths -> paths
      | None ->
        dst := y;
        paths := Array.make n Saturating.zero;
        !paths.(y) <- Saturating.one;
        mark.(y) <- y;
        buf.(0) <- y;
        len := 1;
        let r = bfs_into Digraph.iter_pred enter g buf len in
        sort_by pos buf r;
        for i = r - 1 downto 0 do
          cur := buf.(i);
          Digraph.iter_succ pull g !cur
        done;
        Hashtbl.add into_cache y !paths;
        !paths
    in
    let total_hops = ref 0 in
    let forced = Array.make m 0 in
    List.filter in_range requests
    |> List.sort (fun (x, _) (x', _) -> Int.compare x x')
    |> List.iter (fun (x, y) ->
           if reach.(x) <> x then from x;
           if reach.(y) = x then begin
             let total = fwd.(y) in
             (* a lone x-y dipath is forced throughout *)
             let is_forced =
               if Saturating.to_int total = 1 then fun _ _ -> true
               else if
                 Saturating.to_int total > 0 && not (Saturating.is_saturated total)
               then
                 let gy = into y in
                 fun u v -> Saturating.equal (Saturating.mul fwd.(u) gy.(v)) total
               else fun _ _ -> false
             in
             (* one hop-shortest x-y dipath: its length is the volume term,
                and it holds every forced arc *)
             let rec walk v =
               if v <> x then begin
                 let a = parent.(v) in
                 let u = Digraph.arc_src g a in
                 incr total_hops;
                 if is_forced u v then forced.(a) <- forced.(a) + 1;
                 walk u
               end
             in
             walk y
           end);
    let volume = (!total_hops + m - 1) / m in
    max volume (Array.fold_left max 0 forced)

(* --- the full routing stage: enumerate, seed, search ------------------------ *)

type selection = {
  requests : request array;
  routes : Dipath.t array;
  k : int;
  n_alternatives : int;
  seed_load : int;
  max_load : int;
  lower_bound : int;
  swaps : int;
  rounds : int;
}

let max_rounds = 64

let select ?(k = 8) d requests =
  let t0 = Clock.now_ns () in
  Trace.with_span "routing.select" @@ fun () ->
  let g = Dag.graph d in
  let n = Digraph.n_vertices g in
  let m = Digraph.n_arcs g in
  let reqs = Array.of_list requests in
  let nr = Array.length reqs in
  Metrics.add c_requests nr;
  let rec validate i =
    if i >= nr then Ok ()
    else
      match check_request n i reqs.(i) with
      | Error e -> Error e
      | Ok () -> validate (i + 1)
  in
  match validate 0 with
  | Error e -> Error e
  | Ok () -> (
    (* Phase 1: k alternatives per request (one sweep each, deterministic). *)
    let alts = Array.make nr [||] in
    let failure = ref None in
    Trace.with_span "routing.kshortest" (fun () ->
        Array.iteri
          (fun i (x, y) ->
            if !failure = None then begin
              match k_shortest ~k d x y with
              | [] ->
                Metrics.incr c_unroutable;
                failure := Some (unroutable ~index:i (x, y))
              | l ->
                Metrics.observe h_alternatives (List.length l);
                alts.(i) <- Array.of_list l
            end)
          reqs);
    match !failure with
    | Some e -> Error e
    | None ->
      (* Phase 2: greedy seed by the bottleneck DP.  The seed route joins
         the request's alternative set when the k cutoff missed it, so
         the search space always contains the seed. *)
      let load = Array.make (max 1 m) 0 in
      let chosen = Array.make nr 0 in
      Trace.with_span "routing.seed" (fun () ->
          with_sweep d @@ fun s ->
          Array.iteri
            (fun i (x, y) ->
              let p = Option.value (seed_path s load x y) ~default:alts.(i).(0) in
              let rec find j =
                if j = Array.length alts.(i) then alts.(i) <- Array.append alts.(i) [| p |];
                if Dipath.equal p alts.(i).(j) then j else find (j + 1)
              in
              let idx = find 0 in
              chosen.(i) <- idx;
              let arcs = Dipath.unsafe_arc_array alts.(i).(idx) in
              for j = 0 to Array.length arcs - 1 do
                load.(arcs.(j)) <- load.(arcs.(j)) + 1
              done)
            reqs);
      (* Load-level histogram: cnt.(l) = #arcs at load l.  The search
         objective (max load, #arcs attaining it) reads off it in O(1)
         and swap trials update it in O(path length). *)
      let cnt = Array.make (nr + 1) 0 in
      let cur_max = ref 0 in
      for a = 0 to m - 1 do
        cnt.(load.(a)) <- cnt.(load.(a)) + 1;
        if load.(a) > !cur_max then cur_max := load.(a)
      done;
      let seed_load = !cur_max in
      let apply p delta =
        let arcs = Dipath.unsafe_arc_array p in
        for j = 0 to Array.length arcs - 1 do
          let a = arcs.(j) in
          cnt.(load.(a)) <- cnt.(load.(a)) - 1;
          load.(a) <- load.(a) + delta;
          cnt.(load.(a)) <- cnt.(load.(a)) + 1;
          if load.(a) > !cur_max then cur_max := load.(a)
        done;
        while !cur_max > 0 && cnt.(!cur_max) = 0 do
          decr cur_max
        done
      in
      (* Phase 3: local search.  A swap is kept only when it strictly
         lowers (max load, #arcs at max) — strict descent terminates and
         guarantees max_load <= seed_load. *)
      let swaps = ref 0 in
      let rounds = ref 0 in
      Trace.with_span "routing.search" (fun () ->
          let improved = ref true in
          while !improved && !rounds < max_rounds do
            improved := false;
            incr rounds;
            for i = 0 to nr - 1 do
              let n_alt = Array.length alts.(i) in
              for j = 0 to n_alt - 1 do
                if j <> chosen.(i) then begin
                  let old_max = !cur_max and old_at_max = cnt.(!cur_max) in
                  let pc = alts.(i).(chosen.(i)) and pj = alts.(i).(j) in
                  apply pc (-1);
                  apply pj 1;
                  if !cur_max < old_max
                     || (!cur_max = old_max && cnt.(!cur_max) < old_at_max)
                  then begin
                    chosen.(i) <- j;
                    incr swaps;
                    improved := true;
                    Metrics.incr c_swaps
                  end
                  else begin
                    apply pj (-1);
                    apply pc 1
                  end
                end
              done
            done
          done);
      Metrics.add c_rounds !rounds;
      let routes = Array.mapi (fun i _ -> alts.(i).(chosen.(i))) reqs in
      let n_alternatives =
        Array.fold_left (fun acc a -> acc + Array.length a) 0 alts
      in
      let lb = lower_bound d requests in
      Metrics.observe l_select (Clock.now_ns () - t0);
      Ok
        {
          requests = reqs;
          routes;
          k;
          n_alternatives;
          seed_load;
          max_load = !cur_max;
          lower_bound = lb;
          swaps = !swaps;
          rounds = !rounds;
        })

let instance_of_selection d sel = Instance.of_array d sel.routes

(* --- request files ---------------------------------------------------------- *)

let requests_to_string requests =
  let b = Buffer.create 64 in
  Buffer.add_string b "wlreq 1\n";
  List.iter
    (fun (x, y) -> Buffer.add_string b (Printf.sprintf "req %d %d\n" x y))
    requests;
  Buffer.contents b

let requests_of_string s =
  let sc = Scan.of_string s in
  let err msg = Error (Error.Parse { line = Scan.line sc; msg }) in
  let rec go first acc =
    if not (Scan.next sc) then Ok (List.rev acc)
    else
      let n = Scan.count sc in
      if Scan.is sc 0 "req" && n = 3 then
        match (Scan.int sc 1, Scan.int sc 2) with
        | Some x, Some y -> go false ((x, y) :: acc)
        | _ -> err "expected 'req X Y' with integer vertices"
      else if Scan.is sc 0 "wlreq" && n = 2 then
        if not first then err "wlreq header must come first"
        else
          match Scan.int sc 1 with
          | Some 1 -> go false acc
          | Some v when v > 1 -> Error (Error.Unsupported_version v)
          | _ -> err "malformed wlreq header"
      else err (Printf.sprintf "unknown directive %S" (Scan.word sc 0))
  in
  go true []

let read_requests_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | s -> requests_of_string s
  | exception Sys_error msg -> Error (Error.Io msg)

(* --- request families ------------------------------------------------------- *)

let all_to_all d = Upp.routable_pairs d

let random_requests rng d k =
  match all_to_all d with
  | [] -> []
  | pairs ->
    let arr = Array.of_list pairs in
    List.init k (fun _ -> Wl_util.Prng.choose rng arr)

let instance_of d route requests =
  Result.map (Instance.make d) (route d requests)
