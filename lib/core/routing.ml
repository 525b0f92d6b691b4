open Wl_digraph
module Dag = Wl_dag.Dag
module Upp = Wl_dag.Upp
module Metrics = Wl_obs.Metrics
module Trace = Wl_obs.Trace
module Clock = Wl_obs.Clock
module Saturating = Wl_util.Saturating

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
    | ((x, y) as r) :: rest -> (
      match route i r with
      | Some p -> go (i + 1) (p :: acc) rest
      | None ->
        Metrics.incr c_unroutable;
        Error (unroutable ~index:i (x, y)))
  in
  go 0 [] requests

(* --- hop-count-shortest, deterministic -------------------------------------

   Distance-to-destination by reverse BFS over the allowed subgraph, then a
   greedy forward walk always taking the smallest-numbered next vertex that
   stays on a shortest path: among all minimum-hop dipaths this constructs
   the lexicographically smallest vertex sequence, independent of
   adjacency-list insertion order.  The restricted variants ([banned_v],
   [banned_a]) are the spur routine of Yen's algorithm below. *)

let rev_dist g ~banned_v ~banned_a dst =
  let n = Digraph.n_vertices g in
  let dist = Array.make n (-1) in
  dist.(dst) <- 0;
  let queue = Queue.create () in
  Queue.add dst queue;
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    List.iter
      (fun a ->
        if not banned_a.(a) then begin
          let u = Digraph.arc_src g a in
          if (not banned_v.(u)) && dist.(u) < 0 then begin
            dist.(u) <- dist.(v) + 1;
            Queue.add u queue
          end
        end)
      (Digraph.in_arcs g v)
  done;
  dist

let lex_walk g ~banned_v ~banned_a dist src dst =
  let rec go v acc =
    if v = dst then List.rev (v :: acc)
    else begin
      let best = ref (-1) in
      List.iter
        (fun a ->
          if not banned_a.(a) then begin
            let w = Digraph.arc_dst g a in
            if
              (not banned_v.(w))
              && dist.(w) >= 0
              && dist.(w) = dist.(v) - 1
              && (!best < 0 || w < !best)
            then best := w
          end)
        (Digraph.out_arcs g v);
      go !best (v :: acc)
    end
  in
  go src []

let restricted_shortest g ~banned_v ~banned_a src dst =
  if src = dst then None
  else begin
    let dist = rev_dist g ~banned_v ~banned_a dst in
    if dist.(src) < 0 then None
    else Some (Array.of_list (lex_walk g ~banned_v ~banned_a dist src dst))
  end

let shortest_dipath d src dst =
  let g = Dag.graph d in
  let banned_v = Array.make (Digraph.n_vertices g) false in
  let banned_a = Array.make (max 1 (Digraph.n_arcs g)) false in
  match restricted_shortest g ~banned_v ~banned_a src dst with
  | None -> None
  | Some verts -> Some (Dipath.make g (Array.to_list verts))

let route_unique d requests =
  collect_routes (fun _ (x, y) -> Upp.unique_dipath d x y) requests

let route_shortest d requests =
  collect_routes (fun _ (x, y) -> shortest_dipath d x y) requests

(* --- lexicographic (bottleneck load, hop count) Dijkstra --------------------

   Both components are monotone under arc relaxation, so the label-setting
   argument applies.  The linear-scan extraction always settles the
   lowest-numbered vertex among equal labels, making the result a
   deterministic function of the graph and the load vector. *)

let bottleneck_path d load src dst =
  let g = Dag.graph d in
  let n = Digraph.n_vertices g in
  let inf = (max_int, max_int) in
  let dist = Array.make n inf in
  let parent = Array.make n (-1) in
  let settled = Array.make n false in
  dist.(src) <- (0, 0);
  let rec loop () =
    let best = ref (-1) in
    for v = 0 to n - 1 do
      if (not settled.(v)) && dist.(v) < inf
         && (!best = -1 || dist.(v) < dist.(!best))
      then best := v
    done;
    if !best >= 0 then begin
      let v = !best in
      settled.(v) <- true;
      if v <> dst then begin
        List.iter
          (fun a ->
            let w = Digraph.arc_dst g a in
            let bott, hops = dist.(v) in
            let cand = (max bott load.(a), hops + 1) in
            if cand < dist.(w) then begin
              dist.(w) <- cand;
              parent.(w) <- v
            end)
          (Digraph.out_arcs g v);
        loop ()
      end
    end
  in
  loop ();
  if src = dst || dist.(dst) = inf then None
  else begin
    let rec build v acc = if v = src then v :: acc else build parent.(v) (v :: acc) in
    Some (Dipath.make g (build dst []))
  end

let min_load_router d =
  let g = Dag.graph d in
  let n = Digraph.n_vertices g in
  let load = Array.make (max 1 (Digraph.n_arcs g)) 0 in
  fun (x, y) ->
    match check_request n 0 (x, y) with
    | Error e -> Error e
    | Ok () -> (
      match bottleneck_path d load x y with
      | None ->
        Metrics.incr c_unroutable;
        Error (unroutable (x, y))
      | Some p ->
        List.iter (fun a -> load.(a) <- load.(a) + 1) (Dipath.arcs p);
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

(* --- k-shortest dipaths (Yen) ----------------------------------------------

   Yen's algorithm over the (hop count, lexicographic vertex sequence)
   total order: the accepted list comes out sorted by that order,
   duplicate-free, and — because every dipath in a DAG is loopless —
   complete whenever [k] reaches the number of src-dst dipaths.  Candidate
   bookkeeping is plain lists of int arrays; [k] is small by design. *)

let compare_vseq (a : int array) (b : int array) =
  let c = compare (Array.length a) (Array.length b) in
  if c <> 0 then c else compare a b

let compare_route p q =
  let c = compare (Dipath.n_arcs p) (Dipath.n_arcs q) in
  if c <> 0 then c else compare (Dipath.vertices p) (Dipath.vertices q)

let prefix_eq (a : int array) (b : int array) len =
  let rec go i = i >= len || (a.(i) = b.(i) && go (i + 1)) in
  Array.length a >= len && Array.length b >= len && go 0

let k_shortest ?(k = 8) d src dst =
  let g = Dag.graph d in
  if k <= 0 || src = dst then []
  else begin
    let n = Digraph.n_vertices g in
    let m = Digraph.n_arcs g in
    let banned_v = Array.make n false in
    let banned_a = Array.make (max 1 m) false in
    let reset () =
      Array.fill banned_v 0 n false;
      Array.fill banned_a 0 (max 1 m) false
    in
    match restricted_shortest g ~banned_v ~banned_a src dst with
    | None -> []
    | Some p0 ->
      let accepted = ref [ p0 ] in
      let n_accepted = ref 1 in
      let candidates = ref [] in
      let seen c l = List.exists (fun x -> compare_vseq x c = 0) l in
      let spur_from last =
        let len = Array.length last in
        for j = 0 to len - 2 do
          reset ();
          for t = 0 to j - 1 do
            banned_v.(last.(t)) <- true
          done;
          List.iter
            (fun p ->
              if Array.length p > j + 1 && prefix_eq p last (j + 1) then
                match Digraph.find_arc g p.(j) p.(j + 1) with
                | Some a -> banned_a.(a) <- true
                | None -> ())
            !accepted;
          match restricted_shortest g ~banned_v ~banned_a last.(j) dst with
          | None -> ()
          | Some tail ->
            let c = Array.append (Array.sub last 0 j) tail in
            if not (seen c !candidates || seen c !accepted) then
              candidates := c :: !candidates
        done
      in
      let pop_min () =
        match !candidates with
        | [] -> None
        | first :: rest ->
          let best =
            List.fold_left
              (fun acc c -> if compare_vseq c acc < 0 then c else acc)
              first rest
          in
          candidates :=
            List.filter (fun c -> compare_vseq c best <> 0) !candidates;
          Some best
      in
      let rec grow last =
        if !n_accepted < k then begin
          spur_from last;
          match pop_min () with
          | None -> ()
          | Some best ->
            accepted := best :: !accepted;
            incr n_accepted;
            grow best
        end
      in
      grow p0;
      List.rev_map (fun verts -> Dipath.make g (Array.to_list verts)) !accepted
  end

(* --- routing-aware lower bound ---------------------------------------------

   The computable side of the global packing number (Lo-Zhang-Wong-Fu):
   every routing of the requests has maximum arc load at least

     max( ceil(sum of shortest-path hops / m),          volume bound
          max over arcs of #requests forced through )   forced-arc bound

   An arc (u, v) is forced for request (x, y) when every x-y dipath uses
   it, i.e. #paths(x, u) * #paths(v, y) = #paths(x, y): in a DAG a path
   into u and a path out of v cannot intersect, so the product counts
   exactly the dipaths through the arc.  Counts saturate; a saturated
   total conservatively reads as "nothing forced", which only weakens the
   bound, never invalidates it. *)

let lower_bound d requests =
  let g = Dag.graph d in
  let n = Digraph.n_vertices g in
  let m = Digraph.n_arcs g in
  if requests = [] || m = 0 then 0
  else
    Trace.with_span "routing.bound" @@ fun () ->
    let in_range (x, y) = x >= 0 && x < n && y >= 0 && y < n && x <> y in
    let dist_cache = Hashtbl.create 8 in
    let dist_from x =
      match Hashtbl.find_opt dist_cache x with
      | Some dist -> dist
      | None ->
        let dist = Traversal.bfs_dist g x in
        Hashtbl.add dist_cache x dist;
        dist
    in
    let total_hops =
      List.fold_left
        (fun acc ((x, y) as r) ->
          if in_range r then
            let dxy = (dist_from x).(y) in
            if dxy > 0 then acc + dxy else acc
          else acc)
        0 requests
    in
    let volume = (total_hops + m - 1) / m in
    let forced = Array.make m 0 in
    let fwd_cache = Hashtbl.create 8 in
    let fwd x =
      match Hashtbl.find_opt fwd_cache x with
      | Some f -> f
      | None ->
        let f = Dag.count_dipaths_from d x in
        Hashtbl.add fwd_cache x f;
        f
    in
    let order = Dag.topological_order d in
    let rev_cache = Hashtbl.create 8 in
    let rev y =
      match Hashtbl.find_opt rev_cache y with
      | Some gc -> gc
      | None ->
        let gc = Array.make n Saturating.zero in
        gc.(y) <- Saturating.one;
        for i = n - 1 downto 0 do
          let v = order.(i) in
          if v <> y then
            List.iter
              (fun a ->
                let w = Digraph.arc_dst g a in
                gc.(v) <- Saturating.add gc.(v) gc.(w))
              (Digraph.out_arcs g v)
        done;
        Hashtbl.add rev_cache y gc;
        gc
    in
    List.iter
      (fun ((x, y) as r) ->
        if in_range r then begin
          let f = fwd x in
          let total = f.(y) in
          if Saturating.to_int total > 0 && not (Saturating.is_saturated total)
          then begin
            let gc = rev y in
            Digraph.iter_arcs
              (fun a u v ->
                if Saturating.equal (Saturating.mul f.(u) gc.(v)) total then
                  forced.(a) <- forced.(a) + 1)
              g
          end
        end)
      requests;
    let forced_max = Array.fold_left max 0 forced in
    max volume forced_max

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

let select ?(k = 8) ?(max_rounds = 64) d requests =
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
    (* Phase 1: k alternatives per request (Yen, deterministic). *)
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
      (* Phase 2: greedy seed by the bottleneck Dijkstra.  The seed route
         joins the request's alternative set when Yen's cutoff missed it,
         so the search space always contains the seed. *)
      let load = Array.make (max 1 m) 0 in
      let chosen = Array.make nr 0 in
      Trace.with_span "routing.seed" (fun () ->
          Array.iteri
            (fun i (x, y) ->
              let p =
                match bottleneck_path d load x y with
                | Some p -> p
                | None -> alts.(i).(0)
              in
              let idx =
                let found = ref (-1) in
                Array.iteri
                  (fun j q -> if !found < 0 && Dipath.equal p q then found := j)
                  alts.(i);
                if !found >= 0 then !found
                else begin
                  alts.(i) <- Array.append alts.(i) [| p |];
                  Array.length alts.(i) - 1
                end
              in
              chosen.(i) <- idx;
              List.iter
                (fun a -> load.(a) <- load.(a) + 1)
                (Dipath.arcs alts.(i).(idx)))
            reqs);
      (* Load-level histogram: cnt.(l) = #arcs at load l.  The search
         objective (max load, #arcs attaining it) reads off it in O(1)
         and swap trials update it in O(path length). *)
      let cnt = Array.make (nr + 1) 0 in
      Array.iter (fun l -> cnt.(l) <- cnt.(l) + 1) (Array.sub load 0 m);
      let cur_max = ref 0 in
      Array.iter (fun l -> if l > !cur_max then cur_max := l) load;
      let seed_load = !cur_max in
      let apply p delta =
        List.iter
          (fun a ->
            cnt.(load.(a)) <- cnt.(load.(a)) - 1;
            load.(a) <- load.(a) + delta;
            cnt.(load.(a)) <- cnt.(load.(a)) + 1;
            if load.(a) > !cur_max then cur_max := load.(a))
          (Dipath.arcs p);
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
                  let old_obj = (!cur_max, cnt.(!cur_max)) in
                  let pc = alts.(i).(chosen.(i)) and pj = alts.(i).(j) in
                  apply pc (-1);
                  apply pj 1;
                  if (!cur_max, cnt.(!cur_max)) < old_obj then begin
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
  let err line msg = Error (Error.Parse { line; msg }) in
  let lines = String.split_on_char '\n' s in
  let rec go lineno first acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest -> (
      let line =
        match String.index_opt line '#' with
        | Some i -> String.sub line 0 i
        | None -> line
      in
      let tokens =
        String.split_on_char ' ' (String.trim line)
        |> List.filter (fun t -> t <> "")
      in
      match tokens with
      | [] -> go (lineno + 1) first acc rest
      | [ "wlreq"; v ] -> (
        if not first then err lineno "wlreq header must come first"
        else
          match int_of_string_opt v with
          | Some 1 -> go (lineno + 1) false acc rest
          | Some v when v > 1 -> Error (Error.Unsupported_version v)
          | _ -> err lineno "malformed wlreq header")
      | [ "req"; x; y ] -> (
        match (int_of_string_opt x, int_of_string_opt y) with
        | Some x, Some y -> go (lineno + 1) false ((x, y) :: acc) rest
        | _ -> err lineno "expected 'req X Y' with integer vertices")
      | tok :: _ -> err lineno (Printf.sprintf "unknown directive %S" tok))
  in
  go 1 true [] lines

let read_requests_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | s -> requests_of_string s
  | exception Sys_error msg -> Error (Error.Io msg)

(* --- request families ------------------------------------------------------- *)

let all_to_all d = Upp.routable_pairs d

let route_multicast_tree d root =
  let g = Dag.graph d in
  let n = Digraph.n_vertices g in
  (* BFS parents rooted at the source. *)
  let parent = Array.make n (-1) in
  let seen = Array.make n false in
  let queue = Queue.create () in
  seen.(root) <- true;
  Queue.add root queue;
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    List.iter
      (fun w ->
        if not seen.(w) then begin
          seen.(w) <- true;
          parent.(w) <- v;
          Queue.add w queue
        end)
      (Digraph.succ g v)
  done;
  let rec tree_path v acc =
    if v = root then root :: acc else tree_path parent.(v) (v :: acc)
  in
  List.filter_map
    (fun v ->
      if v <> root && seen.(v) then Some (Dipath.make g (tree_path v []))
      else None)
    (List.init n Fun.id)

let multicast d root =
  let reachable = Traversal.reachable_from (Dag.graph d) root in
  let out = ref [] in
  Array.iteri (fun v r -> if r && v <> root then out := (root, v) :: !out) reachable;
  List.rev !out

let random_requests rng d k =
  match all_to_all d with
  | [] -> []
  | pairs ->
    let arr = Array.of_list pairs in
    List.init k (fun _ -> Wl_util.Prng.choose rng arr)

let instance_of d route requests =
  Result.map (Instance.make d) (route d requests)
