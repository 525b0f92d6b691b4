(* The GC-quiet contract, tested dynamically: the arena reuses physical
   buffers, and the warm paths of Theorem 1 and the engine allocate ZERO
   minor words in steady state — the exact figure the bench runner
   records as gc.minor_w and the gate refuses to let grow.  Also the
   gate's allocation arm on synthetic trajectories.

   Measurement discipline: warm up far enough that every doubling
   (slots, scratch, occupancy rows) has already happened AND left
   headroom for the measured rounds — engine slot ids are never reused,
   so capacity demand grows monotonically and the warmup must overshoot
   the measurement window.  The delta is exact (minor_words is a
   cumulative allocation counter, unaffected by collections), so the
   check is [= 0.], not a tolerance. *)

open Helpers
module Arena = Wl_util.Arena
module Theorem1 = Wl_core.Theorem1
module Engine = Wl_engine.Engine
module Store = Wl_obs.Store

let check_float = Alcotest.(check (float 0.))

(* --- arena ------------------------------------------------------------------ *)

let test_arena_reuse () =
  let a = Arena.create () in
  let b1 = Arena.ints a 100 in
  let b2 = Arena.ints a 10 in
  check "distinct slots" true (b1 != b2);
  Arena.reset a;
  check "same physical buffer after reset" true (Arena.ints a 100 == b1);
  check "second slot too" true (Arena.ints a 10 == b2);
  check_int "slots used" 2 (Arena.mark a)

(* Growth is observed by physical identity: a grown slot hands out a new
   buffer, a steady one the same buffer every round. *)
let test_arena_steady_state_grow_count () =
  let a = Arena.create () in
  let round () =
    Arena.reset a;
    let b0 = Arena.ints a 64 in
    let b1 = Arena.ints a 512 in
    let b2 = Arena.ints a 7 in
    [ b0; b1; b2 ]
  in
  let first = round () in
  let steady = ref true in
  for _ = 1 to 100 do
    if not (List.for_all2 ( == ) first (round ())) then steady := false
  done;
  check "no growth across identical rounds" true !steady;
  (* A bigger request on a known slot grows exactly that slot, once. *)
  Arena.reset a;
  let big = Arena.ints a 2048 in
  check "one growth for the bigger request" true (big != List.hd first);
  check "other slots untouched" true (Arena.ints a 512 == List.nth first 1);
  Arena.reset a;
  check "and it sticks" true (Arena.ints a 2048 == big)

let test_arena_mark_release () =
  let a = Arena.create () in
  ignore (Arena.ints a 8);
  let before = Arena.mark a in
  let m = Arena.mark a in
  let scoped = Arena.ints a 32 in
  Arena.release a m;
  check "released slot is recycled" true (Arena.ints a 32 == scoped);
  Arena.release a m;
  check_int "watermark restored" before (Arena.mark a)

(* --- zero allocation on warm paths ------------------------------------------ *)

let minor_delta f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

let test_thm1_warm_solve_zero_alloc () =
  let inst = random_nic_instance ~n:40 ~k:30 3 in
  let scr = Theorem1.scratch () in
  ignore (Theorem1.color_with scr inst);
  ignore (Theorem1.color_with scr inst);
  let dw =
    minor_delta (fun () ->
        for _ = 1 to 50 do
          ignore (Theorem1.color_with scr inst)
        done)
  in
  check_float "warm color_with allocates nothing" 0. dw

let test_engine_warm_ops_zero_alloc () =
  let inst = random_nic_instance ~n:60 ~k:20 7 in
  let p = List.hd (Wl_core.Instance.paths_list inst) in
  let session = Engine.create inst in
  ignore (Engine.report session);
  (* Slot ids are never reused: 500 warmup pairs push capacity past the
     next doubling with > 100 ids of headroom, so the measured 100 pairs
     stay under the watermark. *)
  for _ = 1 to 500 do
    Engine.remove_path_exn session (Engine.add_dipath_exn session p)
  done;
  let flight_before = Wl_obs.Flight.total (Engine.flight session) in
  let hdr_before =
    let h = Engine.health session in
    h.Engine.add_latency.Wl_obs.Hdr.count
  in
  (* A propagated trace context must not cost the hot path anything:
     measure with a real ambient ctx installed, so every measured op
     reads Ctx.current_trace and latches HDR exemplars / flight trace
     fields exactly as a traced daemon request would. *)
  let g = Wl_obs.Ctx.generator 13 in
  Wl_obs.Ctx.set (Wl_obs.Ctx.root g);
  let dw =
    Fun.protect ~finally:(fun () -> Wl_obs.Ctx.set Wl_obs.Ctx.none) (fun () ->
        minor_delta (fun () ->
            for _ = 1 to 100 do
              Engine.remove_path_exn session (Engine.add_dipath_exn session p)
            done))
  in
  check_float "warm add/remove allocates nothing (ctx ambient)" 0. dw;
  (let h = Engine.health session in
   match h.Engine.add_exemplar with
   | Some (_, trace) when trace <> 0 ->
     check "exemplar latched inside the zero-alloc window" true (trace <> 0)
   | _ -> Alcotest.fail "ambient ctx did not latch an add exemplar");
  (* The always-on observability was live for every measured op: the
     flight ring and the HDR latency histogram both advanced inside the
     zero-allocation window — recording really is free. *)
  check_int "flight recorded each measured op"
    (flight_before + 200)
    (Wl_obs.Flight.total (Engine.flight session));
  check_int "hdr recorded each measured add" (hdr_before + 100)
    (let h = Engine.health session in
     h.Engine.add_latency.Wl_obs.Hdr.count)

(* Every walker over every vertex of a 300-vertex graph: the forward
   star is read in place, so with the closures made up front a whole
   sweep allocates nothing. *)
let test_digraph_walkers_zero_alloc () =
  let module Digraph = Wl_digraph.Digraph in
  let g = gnp_dag 11 300 0.03 in
  let sum = ref 0 in
  let add x = sum := !sum + x in
  let sweep () =
    for v = 0 to Digraph.n_vertices g - 1 do
      Digraph.iter_succ add g v;
      Digraph.iter_pred add g v;
      Digraph.iter_out_arcs add g v;
      sum := Digraph.fold_succ ( + ) g v !sum
    done
  in
  sweep ();
  check_float "iter_*/fold_succ sweep allocates nothing" 0. (minor_delta sweep);
  check "the sweep saw arcs" true (Digraph.n_arcs g > 0 && !sum > 0)

(* --- the gate's allocation arm ---------------------------------------------- *)

let point ?alloc_w name median =
  {
    Store.name;
    params = [];
    extras =
      (match alloc_w with
      | None -> []
      | Some w -> [ (Store.alloc_key, w) ]);
    sample = { Store.median_ns = median; mad_ns = 1.; cv = 0.; runs = 7 };
    baseline_ns = None;
    counters = [];
  }

let entry pts =
  { (Store.make ~domains:1 pts) with Store.rev = "cafe00"; timestamp = "2026-08-08T00:00:00Z" }

let alloc_of cmp name =
  match
    List.find_opt (fun v -> v.Store.bench = name) cmp.Store.verdicts
  with
  | Some v -> v.Store.alloc
  | None -> Alcotest.failf "no verdict for %s" name

let test_gate_alloc_regression () =
  let history =
    List.map (fun w -> entry [ point ~alloc_w:w "e" 100. ]) [ 0.; 0.; 0. ]
  in
  (* Time-stable but 500 fresh words: alloc regression, counted apart. *)
  let cmp = Store.compare ~history (entry [ point ~alloc_w:500. "e" 101. ]) in
  check_int "alloc regression counted" 1 cmp.Store.alloc_regressions;
  check_int "time still stable" 0 cmp.Store.regressions;
  (match alloc_of cmp "e" with
  | Some a ->
    check "flagged" true (a.Store.alloc_verdict = Store.Regression);
    check_float "baseline is zero" 0. a.Store.baseline_w
  | None -> Alcotest.fail "alloc check missing");
  (* Below the 64-word floor a stray boxed temporary is tolerated. *)
  let cmp = Store.compare ~history (entry [ point ~alloc_w:48. "e" 100. ]) in
  check_int "under the floor" 0 cmp.Store.alloc_regressions;
  (* Dropping allocation is an improvement, never a gate failure. *)
  let history500 =
    List.map (fun w -> entry [ point ~alloc_w:w "e" 100. ]) [ 500.; 500. ]
  in
  let cmp =
    Store.compare ~history:history500 (entry [ point ~alloc_w:0. "e" 100. ])
  in
  check_int "no alloc regressions" 0 cmp.Store.alloc_regressions;
  match alloc_of cmp "e" with
  | Some a -> check "improvement" true (a.Store.alloc_verdict = Store.Improvement)
  | None -> Alcotest.fail "alloc check missing"

let test_gate_alloc_absent_is_unjudged () =
  (* Pre-gate history without the figure: the point must not fail. *)
  let history = [ entry [ point "old" 100. ] ] in
  let cmp = Store.compare ~history (entry [ point ~alloc_w:9999. "old" 100. ]) in
  check_int "no alloc baseline, no alloc verdict" 0 cmp.Store.alloc_regressions;
  check "alloc check is None" true (alloc_of cmp "old" = None);
  (* Entry without the figure against history that has it: same. *)
  let history = [ entry [ point ~alloc_w:0. "e" 100. ] ] in
  let cmp = Store.compare ~history (entry [ point "e" 100. ]) in
  check_int "unmeasured entry not judged" 0 cmp.Store.alloc_regressions

let suite =
  [
    ( "alloc",
      [
        Alcotest.test_case "arena reuses buffers" `Quick test_arena_reuse;
        Alcotest.test_case "arena grow-count steady" `Quick
          test_arena_steady_state_grow_count;
        Alcotest.test_case "arena mark/release" `Quick test_arena_mark_release;
        Alcotest.test_case "thm1 warm solve zero-alloc" `Quick
          test_thm1_warm_solve_zero_alloc;
        Alcotest.test_case "engine warm ops zero-alloc" `Quick
          test_engine_warm_ops_zero_alloc;
        Alcotest.test_case "digraph walkers zero-alloc" `Quick
          test_digraph_walkers_zero_alloc;
        Alcotest.test_case "gate flags alloc regressions" `Quick
          test_gate_alloc_regression;
        Alcotest.test_case "gate skips unmeasured alloc" `Quick
          test_gate_alloc_absent_is_unjudged;
      ] );
  ]
