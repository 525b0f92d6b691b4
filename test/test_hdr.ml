(* HDR histogram correctness, pinned against a sorted-array oracle.

   The bucket scheme quantizes a value to its bucket ceiling, so the
   exact contract is: [quantile h q] equals [round_up] of the true
   order statistic at rank ceil(q*n) of the recorded multiset, clamped
   to the largest recorded value.  The oracle below computes exactly
   that from a sorted copy, making the checks equalities, not
   tolerances.  Also: merge associativity (domain
   rollups must not depend on merge order), the SLO window machinery,
   and the zero-allocation record path that lets the engine keep HDR
   recording inside its GC-quiet warm ops. *)

open Helpers
module Hdr = Wl_obs.Hdr
module Prng = Wl_util.Prng

let check_float = Alcotest.(check (float 0.))

let quantiles = [ 0.0; 0.001; 0.01; 0.1; 0.5; 0.9; 0.99; 0.999; 1.0 ]

(* The true order statistic the HDR answer must quantize to. *)
let oracle_quantile sorted q =
  let n = Array.length sorted in
  let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
  let rank = if rank < 1 then 1 else if rank > n then n else rank in
  sorted.(rank - 1)

let check_against_oracle values =
  let h = Hdr.create () in
  Array.iter (Hdr.record h) values;
  let sorted = Array.map (fun v -> if v < 0 then 0 else v) values in
  Array.sort compare sorted;
  let n = Array.length sorted in
  List.iter
    (fun q ->
      check_int
        (Printf.sprintf "q=%g over %d values" q n)
        (min (Hdr.round_up (oracle_quantile sorted q)) sorted.(n - 1))
        (Hdr.quantile h q))
    quantiles;
  check_int "count" n (Hdr.count h);
  check_int "min" sorted.(0) (Hdr.snapshot h).Hdr.min;
  check_int "max" sorted.(n - 1) (Hdr.snapshot h).Hdr.max;
  check_int "sum" (Array.fold_left ( + ) 0 sorted) (Hdr.sum h)

let test_quantile_exact_small_range () =
  (* Values below 2^6 are bucketed exactly: the HDR quantile IS
     the order statistic, no rounding at all. *)
  let rng = Prng.create 7 in
  let values = Array.init 1000 (fun _ -> Prng.int rng 64) in
  let h = Hdr.create () in
  Array.iter (Hdr.record h) values;
  let sorted = Array.copy values in
  Array.sort compare sorted;
  List.iter
    (fun q ->
      check_int
        (Printf.sprintf "exact range q=%g" q)
        (oracle_quantile sorted q) (Hdr.quantile h q))
    quantiles

let test_quantile_oracle_wide_range () =
  (* Mixed magnitudes: ns-scale to seconds-scale latencies. *)
  let rng = Prng.create 42 in
  let values =
    Array.init 5000 (fun _ ->
        let magnitude = Prng.int rng 10 in
        Prng.int rng (1 lsl (3 * magnitude + 3)))
  in
  check_against_oracle values

let test_quantile_oracle_adversarial () =
  (* Bucket-boundary values: powers of two and their neighbours are where
     an off-by-one in index/ceiling arithmetic shows. *)
  let values =
    Array.of_list
      (List.concat_map
         (fun k -> [ (1 lsl k) - 1; 1 lsl k; (1 lsl k) + 1 ])
         [ 1; 5; 6; 7; 12; 20; 40; 61 ])
  in
  check_against_oracle values;
  (* Negative inputs clamp to 0 rather than corrupting a bucket. *)
  check_against_oracle [| -5; -1; 0; 3; 1 lsl 30 |];
  (* A lone observation whose bucket ceiling (172031) lies above it: no
     quantile reports more than the max. *)
  let h = Hdr.create () in
  Hdr.record h 169980;
  check_int "p50 clamped to the max" 169980 (Hdr.quantile h 0.5)

let test_round_up_monotone_bound () =
  let rng = Prng.create 3 in
  for _ = 1 to 2000 do
    let v = Prng.int rng (1 lsl 50) in
    let r = Hdr.round_up v in
    check "ceiling >= value" true (r >= v);
    (* Relative error bound: ceiling < v * (1 + 2^-5), i.e. under 1/32
       above the true value. *)
    check "ceiling within relative error" true
      (r - v <= (v / 32) + 1)
  done

let fill_random ?(n = 2000) seed h =
  let rng = Prng.create seed in
  for _ = 1 to n do
    Hdr.record h (Prng.int rng (1 lsl (6 + Prng.int rng 24)))
  done

let test_merge_associative () =
  let snap_of fills =
    let parts = List.map (fun f -> let h = Hdr.create () in f h; h) fills in
    let dst = Hdr.create () in
    List.iter (fun src -> Hdr.merge_into ~dst src) parts;
    Hdr.snapshot dst
  in
  let a = fill_random 1 and b = fill_random 2 and c = fill_random 3 in
  let left = snap_of [ a; b; c ] in
  let right = snap_of [ c; b; a ] in
  (* ((a+b)+c) via an intermediate merge target. *)
  let ab = Hdr.create () in
  let ha = Hdr.create () and hb = Hdr.create () and hc = Hdr.create () in
  a ha; b hb; c hc;
  Hdr.merge_into ~dst:ab ha;
  Hdr.merge_into ~dst:ab hb;
  let abc = Hdr.create () in
  Hdr.merge_into ~dst:abc ab;
  Hdr.merge_into ~dst:abc hc;
  let nested = Hdr.snapshot abc in
  check "merge order irrelevant" true (left = right);
  check "nested merge agrees" true (left = nested);
  (* And the merged snapshot equals recording everything into one. *)
  let one = Hdr.create () in
  a one; b one; c one;
  check "merge = single recorder" true (left = Hdr.snapshot one)

let test_merge_shard_union () =
  (* The daemon rollup contract: merging per-shard histograms into a
     fresh target answers every quantile exactly as one histogram fed
     the union of all shards' samples would.  This is what lets
     `wl top --connect` print daemon-wide p50/p99 without any shard ever
     seeing another shard's samples. *)
  let n_shards = 5 in
  let shards = Array.init n_shards (fun _ -> Hdr.create ()) in
  let union = Hdr.create () in
  let rng = Prng.create 99 in
  for i = 1 to 4000 do
    let v = Prng.int rng (1 lsl (4 + Prng.int rng 26)) in
    Hdr.record shards.(i mod n_shards) v;
    Hdr.record union v
  done;
  let merged = Hdr.create () in
  Array.iter (fun src -> Hdr.merge_into ~dst:merged src) shards;
  List.iter
    (fun q ->
      check_int (Printf.sprintf "q=%g" q) (Hdr.quantile union q) (Hdr.quantile merged q))
    quantiles;
  check_int "union count" (Hdr.count union) (Hdr.count merged);
  check_int "union sum" (Hdr.sum union) (Hdr.sum merged);
  check "union snapshot, min and max included" true (Hdr.snapshot union = Hdr.snapshot merged)

let test_empty_and_reset () =
  let h = Hdr.create () in
  check_int "empty count" 0 (Hdr.count h);
  check_int "empty quantile" 0 (Hdr.quantile h 0.99);
  check_int "empty min" 0 (Hdr.snapshot h).Hdr.min;
  check_int "empty max" 0 (Hdr.snapshot h).Hdr.max;
  Hdr.record h 1234;
  check "recorded" true (Hdr.count h = 1);
  Hdr.reset h;
  check_int "reset count" 0 (Hdr.count h);
  check_int "reset quantile" 0 (Hdr.quantile h 0.5)

(* --- trace exemplars --------------------------------------------------------- *)

let test_exemplar_latch () =
  let h = Hdr.create () in
  check "no exemplar when empty" true (Hdr.exemplar h = None);
  Hdr.record h 5_000;
  check "untraced records never latch" true (Hdr.exemplar h = None);
  Hdr.record_traced h 700 ~trace:0xa1;
  check "first traced sample latches" true (Hdr.exemplar h = Some (700, 0xa1));
  Hdr.record_traced h 300 ~trace:0xb2;
  check "faster sample does not displace" true
    (Hdr.exemplar h = Some (700, 0xa1));
  Hdr.record_traced h 900 ~trace:0xc3;
  check "slower sample takes the latch" true
    (Hdr.exemplar h = Some (900, 0xc3));
  Hdr.record_traced h 10_000 ~trace:0;
  check "trace 0 means untraced, even if slowest" true
    (Hdr.exemplar h = Some (900, 0xc3));
  Hdr.reset h;
  check "reset clears the exemplar" true (Hdr.exemplar h = None)

let test_exemplar_survives_merge () =
  (* Shard-merged rollups keep the link to the slowest trace daemon-wide:
     the worse of the two exemplars survives merge_into. *)
  let a = Hdr.create () and b = Hdr.create () in
  Hdr.record_traced a 400 ~trace:0x11;
  Hdr.record_traced b 4_000 ~trace:0x22;
  let dst = Hdr.create () in
  Hdr.merge_into ~dst a;
  check "merge imports the source exemplar" true
    (Hdr.exemplar dst = Some (400, 0x11));
  Hdr.merge_into ~dst b;
  check "worse exemplar wins across shards" true
    (Hdr.exemplar dst = Some (4_000, 0x22));
  (* Merging an exemplar-free histogram does not erase the latch. *)
  let c = Hdr.create () in
  Hdr.record c 9_999;
  Hdr.merge_into ~dst c;
  check "exemplar-free source leaves the latch alone" true
    (Hdr.exemplar dst = Some (4_000, 0x22))

(* --- SLO window -------------------------------------------------------------- *)

let test_slo_trip_and_rearm () =
  let slo = Hdr.Slo.create ~target_ns:100 ~budget:0.1 in
  for _ = 1 to 512 do
    Hdr.Slo.record slo 50
  done;
  check "all under target: healthy" true (not (Hdr.Slo.tripped slo));
  check_float "burn 0" 0. (Hdr.Slo.state slo).Hdr.Slo.burn;
  (* 10% budget over the 512-wide window: 51 violations stay within it,
     the 52nd crosses it. *)
  for _ = 1 to 51 do
    Hdr.Slo.record slo 1000
  done;
  check "51 of 512 within budget" true (not (Hdr.Slo.tripped slo));
  Hdr.Slo.record slo 1000;
  check "tripped" true (Hdr.Slo.tripped slo);
  (* Latched: recovering the window does not silently clear the trip. *)
  for _ = 1 to 512 do
    Hdr.Slo.record slo 10
  done;
  check "still tripped (latched)" true (Hdr.Slo.tripped slo);
  let st = Hdr.Slo.state slo in
  check_int "window holds no violation" 0 st.Hdr.Slo.over;
  check_int "lifetime over-target count survives" 52 st.Hdr.Slo.total_over

let test_slo_min_fill_guard () =
  (* A single slow op in a barely-filled window must not trip: the trip
     needs window/8 = 64 observations first. *)
  let slo = Hdr.Slo.create ~target_ns:100 ~budget:0.01 in
  Hdr.Slo.record slo 10_000;
  check "one op never trips" true (not (Hdr.Slo.tripped slo));
  for _ = 1 to 62 do
    Hdr.Slo.record slo 10
  done;
  check "below min fill" true (not (Hdr.Slo.tripped slo));
  Hdr.Slo.record slo 10_000;
  (* 64 observed, 2 over: 3.1% > 1% budget — now it trips. *)
  check "trips once the window is credible" true (Hdr.Slo.tripped slo)

(* --- allocation discipline --------------------------------------------------- *)

let minor_delta f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

let test_record_path_zero_alloc () =
  let h = Hdr.create () in
  let slo = Hdr.Slo.create ~target_ns:500 ~budget:0.5 in
  (* Warm both paths (first records touch every code path once). *)
  for i = 1 to 100 do
    Hdr.record h (i * 37);
    Hdr.Slo.record slo (i * 37)
  done;
  let dw =
    minor_delta (fun () ->
        for i = 1 to 1000 do
          Hdr.record h (i * 1531);
          Hdr.Slo.record slo (i * 1531)
        done)
  in
  check_float "Hdr.record and Slo.record allocate nothing" 0. dw

let suite =
  [
    ( "hdr",
      [
        Alcotest.test_case "exact small range" `Quick
          test_quantile_exact_small_range;
        Alcotest.test_case "quantiles vs sorted oracle" `Quick
          test_quantile_oracle_wide_range;
        Alcotest.test_case "bucket boundaries" `Quick
          test_quantile_oracle_adversarial;
        Alcotest.test_case "round_up bound" `Quick test_round_up_monotone_bound;
        Alcotest.test_case "merge associativity" `Quick test_merge_associative;
        Alcotest.test_case "shard merge equals union" `Quick
          test_merge_shard_union;
        Alcotest.test_case "exemplar latch" `Quick test_exemplar_latch;
        Alcotest.test_case "exemplar survives merge" `Quick
          test_exemplar_survives_merge;
        Alcotest.test_case "empty and reset" `Quick test_empty_and_reset;
        Alcotest.test_case "slo trips and latches" `Quick
          test_slo_trip_and_rearm;
        Alcotest.test_case "slo min-fill guard" `Quick test_slo_min_fill_guard;
        Alcotest.test_case "record path zero-alloc" `Quick
          test_record_path_zero_alloc;
      ] );
  ]
