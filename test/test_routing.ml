(* Tests for request routing. *)

open Helpers
open Wl_core
open Wl_digraph
module Dag = Wl_dag.Dag
module Prng = Wl_util.Prng
module Generators = Wl_netgen.Generators

let test_route_shortest_is_shortest () =
  (* 0 -> 1 -> 4 (2 hops) vs 0 -> 2 -> 3 -> 4 (3 hops).  Regression for the
     old delegation to Dag.some_dipath, whose contract is "any dipath": the
     hop count is pinned. *)
  let g = Digraph.of_arcs 5 [ (0, 1); (1, 4); (0, 2); (2, 3); (3, 4) ] in
  let dag = Dag.of_digraph_exn g in
  match Routing.route_shortest dag [ (0, 4) ] with
  | Ok [ p ] -> check_int "two hops" 2 (Dipath.n_arcs p)
  | _ -> Alcotest.fail "routing failed"

let test_shortest_is_lex_smallest () =
  (* Two 2-hop routes 0->3->4 and 0->1->4; arc insertion order puts 3 before
     1 in the adjacency list, but route_shortest must still pick the
     lexicographically smaller vertex sequence 0,1,4. *)
  let g = Digraph.of_arcs 5 [ (0, 3); (3, 4); (0, 1); (1, 4) ] in
  let dag = Dag.of_digraph_exn g in
  match Routing.route_shortest dag [ (0, 4) ] with
  | Ok [ p ] -> check "lex smallest" true (Dipath.vertices p = [ 0; 1; 4 ])
  | _ -> Alcotest.fail "routable"

let astring_contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_unroutable_reported () =
  let g = Digraph.of_arcs 3 [ (0, 1) ] in
  let dag = Dag.of_digraph_exn g in
  (match Routing.route_shortest dag [ (0, 1); (1, 2) ] with
  | Error (Error.Invalid_path msg as e) ->
    check "names the position" true
      (astring_contains msg "position 1" && astring_contains msg "(1, 2)");
    check_int "Invalid_path exit code" 67 (Error.exit_code e)
  | Error _ -> Alcotest.fail "wrong error constructor"
  | Ok _ -> Alcotest.fail "should be unroutable");
  match Routing.instance_of dag Routing.route_shortest [ (0, 1); (1, 0) ] with
  | Error (Error.Invalid_path _) -> ()
  | Error _ -> Alcotest.fail "wrong error constructor"
  | Ok _ -> Alcotest.fail "should fail end to end"

let test_min_load_spreads () =
  (* Two parallel two-hop routes; four identical requests must split 2/2,
     keeping the load at 2 instead of 4. *)
  let g = Digraph.of_arcs 6 [ (0, 1); (1, 5); (0, 2); (2, 5); (0, 3); (3, 5) ] in
  let dag = Dag.of_digraph_exn g in
  let requests = List.init 6 (fun _ -> (0, 5)) in
  match Routing.instance_of dag Routing.route_min_load requests with
  | Error e -> Alcotest.failf "routing failed: %s" (Error.to_string e)
  | Ok inst -> check_int "balanced load" 2 (Load.pi inst)

let shortest_really_shortest =
  qtest "route_shortest matches BFS distance" seed_gen ~count:30 (fun seed ->
      let rng = Prng.create seed in
      let dag = Generators.gnp_dag rng 14 0.25 in
      let g = Dag.graph dag in
      let pairs = Wl_dag.Upp.routable_pairs dag in
      match Routing.route_shortest dag pairs with
      | Error _ -> false
      | Ok paths ->
        List.for_all2
          (fun (x, _) p ->
            let dist = Traversal.bfs_dist g x in
            Dipath.n_arcs p = dist.(Dipath.dst p))
          pairs paths)

let min_load_routes_everything =
  qtest "min-load routing is total and deterministic" seed_gen ~count:25
    (fun seed ->
      let rng = Prng.create seed in
      let dag = Generators.layered rng ~layers:4 ~width:4 ~p:0.5 in
      let requests = Routing.random_requests rng dag 20 in
      match
        ( Routing.instance_of dag Routing.route_min_load requests,
          Routing.instance_of dag Routing.route_min_load requests )
      with
      | Ok m1, Ok m2 ->
        Instance.n_paths m1 = List.length requests
        && List.equal Dipath.equal (Instance.paths_list m1) (Instance.paths_list m2)
      | _ -> false)

(* On a hotspot topology the load-aware router must beat blind shortest
   paths: many requests whose unique shortest route shares one arc, while a
   one-hop-longer detour exists. *)
let test_min_load_beats_shortest_on_hotspot () =
  (* 0 -> 1 -> 5 (short) and 0 -> 2 -> 3 -> 5 / 0 -> 4 -> ... detours. *)
  let g =
    Digraph.of_arcs 7
      [ (0, 1); (1, 6); (0, 2); (2, 3); (3, 6); (0, 4); (4, 5); (5, 6) ]
  in
  let dag = Dag.of_digraph_exn g in
  let requests = List.init 6 (fun _ -> (0, 6)) in
  match
    ( Routing.instance_of dag Routing.route_shortest requests,
      Routing.instance_of dag Routing.route_min_load requests )
  with
  | Ok s, Ok m ->
    check_int "shortest hotspots" 6 (Load.pi s);
    check_int "min-load spreads to 2" 2 (Load.pi m)
  | _ -> Alcotest.fail "routing failed"

(* --- the routing stage: bottleneck seed, k-shortest, select ------------- *)

let path_bottleneck load p =
  List.fold_left (fun acc a -> max acc load.(a)) 0 (Dipath.arcs p)

(* The bottleneck search against brute force, through the online
   min-load router that runs it: on DAGs small enough to enumerate every
   dipath, each route's bottleneck under the loads of the requests routed
   before it must equal the true minimum over all dipaths (the hop
   component is a tie-break heuristic, not a guarantee — one label per
   vertex cannot certify hop-minimality). *)
let bottleneck_matches_brute_force =
  qtest "bottleneck_path equals brute-force min-bottleneck" seed_gen ~count:60
    (fun seed ->
      let rng = Prng.create seed in
      let n = 4 + Prng.int rng 5 in
      let dag = Generators.gnp_dag rng n 0.4 in
      let load = Array.make (max 1 (Dag.n_arcs dag)) 0 in
      let requests =
        match Array.of_list (Wl_dag.Upp.routable_pairs dag) with
        | [||] -> []
        | routable -> List.init 20 (fun _ -> Prng.choose rng routable)
      in
      match Routing.route_min_load dag requests with
      | Error _ -> false
      | Ok paths ->
        List.for_all2
          (fun (x, y) p ->
            let best =
              List.fold_left
                (fun acc q -> min acc (path_bottleneck load q))
                max_int
                (Dag.all_dipaths_between ~limit:10_000 dag x y)
            in
            let ok = path_bottleneck load p = best in
            List.iter (fun a -> load.(a) <- load.(a) + 1) (Dipath.arcs p);
            ok)
          requests paths)

(* The linear-scan label-setting search the heap replaced, kept as the
   reference for tie-breaking: it settles the lowest-numbered vertex among
   equal (bottleneck, hops) labels and keeps the first of equal
   relaxations. *)
let scan_bottleneck_path dag load src dst =
  let g = Dag.graph dag in
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
        Digraph.iter_out_arcs
          (fun a ->
            let w = Digraph.arc_dst g a in
            let bott, hops = dist.(v) in
            let cand = (max bott load.(a), hops + 1) in
            if cand < dist.(w) then begin
              dist.(w) <- cand;
              parent.(w) <- v
            end)
          g v;
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

(* The online min-load router over the reference search. *)
let scan_min_load dag requests =
  let load = Array.make (max 1 (Dag.n_arcs dag)) 0 in
  List.map
    (fun (x, y) ->
      let p = scan_bottleneck_path dag load x y in
      Option.iter
        (fun p -> List.iter (fun a -> load.(a) <- load.(a) + 1) (Dipath.arcs p))
        p;
      p)
    requests

(* Small loads make many equal labels, so any change to the heap's
   tie-breaking changes some route here, not just its bottleneck. *)
let bottleneck_matches_scan =
  qtest "bottleneck_path and route_min_load match the linear scan" seed_gen
    ~count:150 (fun seed ->
      let rng = Prng.create seed in
      let dag =
        if seed mod 2 = 0 then Generators.gnp_dag rng (4 + Prng.int rng 9) 0.4
        else Generators.layered rng ~layers:(2 + Prng.int rng 4) ~width:3 ~p:0.6
      in
      let same a b = Option.equal Dipath.equal a b in
      let requests =
        match Array.of_list (Wl_dag.Upp.routable_pairs dag) with
        | [||] -> []
        | routable -> List.init 24 (fun _ -> Prng.choose rng routable)
      in
      match Routing.route_min_load dag requests with
      | Ok paths -> List.equal same (List.map Option.some paths) (scan_min_load dag requests)
      | Error _ -> false)

(* k-shortest: duplicate-free, sorted by (hops, lex vertex sequence), and
   complete once k reaches the number of dipaths. *)
let k_shortest_enumeration =
  qtest "k_shortest is sorted, duplicate-free, complete" seed_gen ~count:60
    (fun seed ->
      let rng = Prng.create seed in
      let n = 4 + Prng.int rng 5 in
      let dag = Generators.gnp_dag rng n 0.45 in
      List.for_all
        (fun (x, y) ->
          let all = Dag.all_dipaths_between ~limit:10_000 dag x y in
          let total = List.length all in
          let ks = Routing.k_shortest ~k:(total + 3) dag x y in
          let sorted =
            let rec go = function
              | a :: (b :: _ as rest) ->
                compare
                  (Dipath.n_arcs a, Dipath.vertices a)
                  (Dipath.n_arcs b, Dipath.vertices b)
                < 0
                && go rest
              | _ -> true
            in
            go ks
          in
          let complete =
            List.length ks = total
            && List.for_all
                 (fun p -> List.exists (Dipath.equal p) ks)
                 all
          in
          let prefix =
            (* a smaller k returns exactly the first few of the full list *)
            let k = 1 + Prng.int rng (total + 1) in
            let small = Routing.k_shortest ~k dag x y in
            List.length small = min k total
            && List.for_all2 Dipath.equal small
                 (List.filteri (fun i _ -> i < min k total) ks)
          in
          sorted && complete && prefix)
        (Wl_dag.Upp.routable_pairs dag))

(* select: the local search never worsens the greedy seed, the
   packing-number-style lower bound holds, and the reported max_load is the
   true load of the chosen family. *)
let select_invariants =
  qtest "select: lb <= max_load <= seed_load = pi-consistent" seed_gen
    ~count:40 (fun seed ->
      let rng = Prng.create seed in
      let dag = Generators.gnp_dag rng 12 0.3 in
      let requests = Routing.random_requests rng dag 16 in
      if requests = [] then true
      else
        match Routing.select ~k:4 dag requests with
        | Error _ -> false
        | Ok sel ->
          let inst = Routing.instance_of_selection dag sel in
          sel.Routing.max_load <= sel.Routing.seed_load
          && sel.Routing.lower_bound <= sel.Routing.max_load
          && Load.pi inst = sel.Routing.max_load
          && sel.Routing.lower_bound <= (Solver.solve inst).Solver.n_wavelengths)

let test_select_beats_seed_on_hotspot () =
  (* Three disjoint 0->6 routes; six identical requests.  The greedy seed
     already balances (bottleneck Dijkstra), so instead force a detour
     decision: requests between interior vertices that the seed routes
     through the shared fast arc, and check select reaches the optimum 2. *)
  let g =
    Digraph.of_arcs 7
      [ (0, 1); (1, 6); (0, 2); (2, 3); (3, 6); (0, 4); (4, 5); (5, 6) ]
  in
  let dag = Dag.of_digraph_exn g in
  let requests = List.init 6 (fun _ -> (0, 6)) in
  match Routing.select ~k:4 dag requests with
  | Error e -> Alcotest.failf "select failed: %s" (Error.to_string e)
  | Ok sel ->
    check_int "optimal spread" 2 sel.Routing.max_load;
    check_int "matches lower bound" sel.Routing.lower_bound
      sel.Routing.max_load;
    check "never worse than seed" true
      (sel.Routing.max_load <= sel.Routing.seed_load)

let test_select_bad_index () =
  let g = Digraph.of_arcs 3 [ (0, 1); (1, 2) ] in
  let dag = Dag.of_digraph_exn g in
  match Routing.select dag [ (0, 7) ] with
  | Error (Error.Bad_index { index = 7; _ } as e) ->
    check_int "Bad_index exit code" 68 (Error.exit_code e)
  | _ -> Alcotest.fail "expected Bad_index"

let test_lower_bound_forced_arc () =
  (* A bridge arc every request must cross: volume bound is 1 but the
     forced-arc bound sees all three requests. *)
  let g = Digraph.of_arcs 6 [ (0, 2); (1, 2); (2, 3); (3, 4); (3, 5) ] in
  let dag = Dag.of_digraph_exn g in
  check_int "forced bridge" 3
    (Routing.lower_bound dag [ (0, 4); (1, 5); (0, 5) ])

(* lower_bound against brute force on DAGs small enough to enumerate every
   dipath: an arc is forced when every dipath of the request uses it, and
   the volume term sums BFS distances.  Requests include x = y and
   unroutable pairs, which contribute nothing. *)
let brute_lower_bound dag requests =
  let g = Dag.graph dag in
  let m = Digraph.n_arcs g in
  if requests = [] || m = 0 then 0
  else begin
    let forced = Array.make m 0 in
    let hops = ref 0 in
    List.iter
      (fun (x, y) ->
        match Dag.all_dipaths_between ~limit:1_000_000 dag x y with
        | [] -> ()
        | all ->
          hops := !hops + (Traversal.bfs_dist g x).(y);
          for a = 0 to m - 1 do
            if List.for_all (fun p -> Dipath.mem_arc p a) all then
              forced.(a) <- forced.(a) + 1
          done)
      requests;
    max ((!hops + m - 1) / m) (Array.fold_left max 0 forced)
  end

let lower_bound_matches_brute_force =
  qtest "lower_bound equals brute-force forced-arc and volume bound" seed_gen
    ~count:150 (fun seed ->
      let rng = Prng.create seed in
      let n = 3 + Prng.int rng 7 in
      let dag = Generators.gnp_dag rng n (0.2 +. (0.01 *. float_of_int (Prng.int rng 40))) in
      let requests =
        List.init (Prng.int rng 12) (fun _ -> (Prng.int rng n, Prng.int rng n))
      in
      Routing.lower_bound dag requests = brute_lower_bound dag requests)

let test_requests_roundtrip () =
  let reqs = [ (0, 5); (2, 7); (2, 7) ] in
  (match Routing.requests_of_string (Routing.requests_to_string reqs) with
  | Ok r -> check "roundtrip" true (r = reqs)
  | Error _ -> Alcotest.fail "roundtrip failed");
  (match Routing.requests_of_string "req 1 2 # tail comment\n\nreq 3 4\n" with
  | Ok r -> check "comments and blanks" true (r = [ (1, 2); (3, 4) ])
  | Error _ -> Alcotest.fail "lenient parse failed");
  (match Routing.requests_of_string "wlreq 1\nreq 0 nope\n" with
  | Error (Error.Parse { line = 2; _ }) -> ()
  | _ -> Alcotest.fail "expected Parse at line 2");
  match Routing.requests_of_string "wlreq 9\n" with
  | Error (Error.Unsupported_version 9) -> ()
  | _ -> Alcotest.fail "expected Unsupported_version"

let test_unique_on_upp () =
  let rng = Prng.create 3 in
  let dag = Generators.gnp_upp rng 12 0.3 in
  let pairs = Routing.all_to_all dag in
  match Routing.route_shortest dag pairs with
  | Error e -> Alcotest.failf "routing failed: %s" (Error.to_string e)
  | Ok paths ->
    check_int "one per pair" (List.length pairs) (List.length paths);
    List.iter2
      (fun (x, y) p ->
        check "endpoints" true (Dipath.src p = x && Dipath.dst p = y);
        check "the only dipath" true
          (Wl_util.Saturating.to_int (Dag.count_dipaths_from dag x).(y) = 1))
      pairs paths

let test_random_requests_routable () =
  let rng = Prng.create 8 in
  let dag = Generators.gnp_dag rng 12 0.3 in
  let reqs = Routing.random_requests rng dag 25 in
  check_int "count" 25 (List.length reqs);
  match Routing.route_shortest dag reqs with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "random request unroutable: %s" (Error.to_string e)

(* Multicast instances satisfy w = pi on any digraph (the paper cites
   Beauquier-Hell-Perennes); with our machinery this follows from Theorem 1
   when there is no internal cycle, and we verify it exactly on small
   multicast instances in general. *)
let multicast_w_equals_pi =
  qtest "multicast families have w = pi (small, exact)" seed_gen ~count:20
    (fun seed ->
      let rng = Prng.create seed in
      let dag = Generators.gnp_dag rng 9 0.3 in
      let root = Prng.int rng 9 in
      let reached = Traversal.reachable_from (Dag.graph dag) root in
      let reqs =
        List.filter_map
          (fun v -> if v <> root && reached.(v) then Some (root, v) else None)
          (List.init 9 Fun.id)
      in
      if List.length reqs = 0 || List.length reqs > 14 then true
      else
        match Routing.instance_of dag Routing.route_shortest reqs with
        | Error _ -> false
        | Ok inst -> Bounds.chromatic_exact inst = Load.pi inst)

let suite =
  [
    ( "routing",
      [
        Alcotest.test_case "shortest is shortest" `Quick test_route_shortest_is_shortest;
        Alcotest.test_case "shortest is lex smallest" `Quick
          test_shortest_is_lex_smallest;
        Alcotest.test_case "unroutable reported" `Quick test_unroutable_reported;
        Alcotest.test_case "min-load spreads" `Quick test_min_load_spreads;
        shortest_really_shortest;
        min_load_routes_everything;
        Alcotest.test_case "min-load beats shortest on hotspot" `Quick
          test_min_load_beats_shortest_on_hotspot;
        bottleneck_matches_brute_force;
        bottleneck_matches_scan;
        k_shortest_enumeration;
        select_invariants;
        Alcotest.test_case "select reaches hotspot optimum" `Quick
          test_select_beats_seed_on_hotspot;
        Alcotest.test_case "select rejects bad vertex" `Quick
          test_select_bad_index;
        Alcotest.test_case "lower bound sees forced arc" `Quick
          test_lower_bound_forced_arc;
        lower_bound_matches_brute_force;
        Alcotest.test_case "request file roundtrip" `Quick
          test_requests_roundtrip;
        Alcotest.test_case "unique routing on UPP" `Quick test_unique_on_upp;
        Alcotest.test_case "random requests routable" `Quick
          test_random_requests_routable;
        multicast_w_equals_pi;
      ] );
  ]
