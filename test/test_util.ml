(* Unit and property tests for the wl_util substrate. *)

open Helpers
module Prng = Wl_util.Prng
module Union_find = Wl_util.Union_find
module Bitset = Wl_util.Bitset
module Saturating = Wl_util.Saturating

(* --- Prng --- *)

let test_prng_deterministic () =
  let a = Prng.create 42 and b = Prng.create 42 in
  for _ = 1 to 100 do
    check_int "same stream" (Prng.int a 1000) (Prng.int b 1000)
  done

let test_prng_differs_by_seed () =
  let a = Prng.create 1 and b = Prng.create 2 in
  let same = ref 0 in
  for _ = 1 to 50 do
    if Prng.int a 1_000_000 = Prng.int b 1_000_000 then incr same
  done;
  check "streams differ" true (!same < 5)

let prng_bounds =
  qtest "prng: int stays in bounds" QCheck2.Gen.(pair seed_gen (int_range 1 1000))
    (fun (seed, bound) ->
      let rng = Prng.create seed in
      let v = Prng.int rng bound in
      v >= 0 && v < bound)

let prng_int_in =
  qtest "prng: int_in inclusive range"
    QCheck2.Gen.(triple seed_gen (int_range (-50) 50) (int_range 0 100))
    (fun (seed, lo, width) ->
      let rng = Prng.create seed in
      let v = Prng.int_in rng lo (lo + width) in
      v >= lo && v <= lo + width)

let prng_shuffle_permutes =
  qtest "prng: shuffle is a permutation" QCheck2.Gen.(pair seed_gen (int_range 0 40))
    (fun (seed, n) ->
      let a = Prng.permutation (Prng.create seed) n in
      List.sort compare (Array.to_list a) = List.init n Fun.id)

let prng_sample =
  qtest "prng: sample_without_replacement distinct and sorted"
    QCheck2.Gen.(pair seed_gen (int_range 0 30))
    (fun (seed, n) ->
      let rng = Prng.create seed in
      let k = if n = 0 then 0 else Prng.int rng (n + 1) in
      let s = Prng.sample_without_replacement rng k n in
      List.length s = k
      && List.sort_uniq compare s = s
      && List.for_all (fun v -> v >= 0 && v < n) s)

(* [bernoulli] draws a float uniform in [0, 1) and compares it with p: it
   is always true at p = 1 and never at p = 0 exactly when the draw stays
   in range. *)
let test_prng_float_range () =
  let rng = Prng.create 5 in
  for _ = 1 to 1000 do
    check "below 1" true (Prng.bernoulli rng 1.0);
    check "at least 0" false (Prng.bernoulli rng 0.0)
  done

(* --- Union_find --- *)

let same uf a b = Union_find.find uf a = Union_find.find uf b

(* Class sizes, sorted, from the representatives. *)
let class_sizes uf n =
  let size = Array.make n 0 in
  for i = 0 to n - 1 do
    let r = Union_find.find uf i in
    size.(r) <- size.(r) + 1
  done;
  List.sort compare (List.filter (fun c -> c > 0) (Array.to_list size))

let test_union_find_basic () =
  let uf = Union_find.create 6 in
  check_int "initial classes" 6 (List.length (class_sizes uf 6));
  check "fresh union" true (Union_find.union uf 0 1);
  check "redundant union closes cycle" false (Union_find.union uf 1 0);
  check "same" true (same uf 0 1);
  check "not same" false (same uf 0 2);
  ignore (Union_find.union uf 2 3);
  ignore (Union_find.union uf 1 2);
  check "transitively same" true (same uf 0 3);
  check_int "classes after unions" 3 (List.length (class_sizes uf 6))

let test_union_find_class_sizes () =
  let uf = Union_find.create 5 in
  ignore (Union_find.union uf 0 1);
  ignore (Union_find.union uf 0 2);
  check "sizes" true (class_sizes uf 5 = [ 1; 1; 3 ])

let union_find_vs_reference =
  qtest "union_find agrees with reference partition"
    QCheck2.Gen.(pair seed_gen (int_range 1 20))
    (fun (seed, n) ->
      let rng = Prng.create seed in
      let uf = Union_find.create n in
      let classes = Array.init n (fun i -> i) in
      let relabel a b =
        Array.iteri (fun i c -> if c = b then classes.(i) <- a) classes
      in
      for _ = 1 to 2 * n do
        let a = Prng.int rng n and b = Prng.int rng n in
        ignore (Union_find.union uf a b);
        relabel classes.(a) classes.(b)
      done;
      let ok = ref true in
      for a = 0 to n - 1 do
        for b = 0 to n - 1 do
          if same uf a b <> (classes.(a) = classes.(b)) then ok := false
        done
      done;
      !ok)

(* --- Bitset --- *)

let bitset_vs_reference =
  qtest "bitset ops agree with Set.Make(Int)"
    QCheck2.Gen.(pair seed_gen (int_range 1 200))
    (fun (seed, n) ->
      let module S = Set.Make (Int) in
      let rng = Prng.create seed in
      let b1 = Bitset.create n and b2 = Bitset.create n in
      let s1 = ref S.empty and s2 = ref S.empty in
      for _ = 1 to n do
        let v = Prng.int rng n in
        if Prng.bool rng then begin
          Bitset.add b1 v;
          s1 := S.add v !s1
        end
        else begin
          Bitset.add b2 v;
          s2 := S.add v !s2
        end
      done;
      let agree bs s = Bitset.elements bs = S.elements s in
      let union = Bitset.copy b1 in
      Bitset.union_into union b2;
      agree (Bitset.inter b1 b2) (S.inter !s1 !s2)
      && agree union (S.union !s1 !s2)
      && Bitset.cardinal b1 = S.cardinal !s1
      && agree b1 !s1)

let test_bitset_fill_clear () =
  let b = Bitset.create 130 in
  Bitset.fill b;
  check_int "fill cardinal" 130 (Bitset.cardinal b);
  check "mem last" true (Bitset.mem b 129);
  Bitset.clear b;
  check_int "empty after clear" 0 (Bitset.cardinal b);
  check "first of empty" true (Bitset.first b = None);
  Bitset.add b 77;
  check "first" true (Bitset.first b = Some 77)

let test_bitset_bounds () =
  let b = Bitset.create 10 in
  Alcotest.check_raises "out of range" (Invalid_argument "Bitset: index out of range")
    (fun () -> Bitset.add b 10)

let test_bitset_iter_order () =
  let b = Bitset.create 100 in
  List.iter (Bitset.add b) [ 93; 2; 67; 2; 40 ];
  check "elements sorted unique" true (Bitset.elements b = [ 2; 40; 67; 93 ])

(* --- Saturating --- *)

let test_saturating () =
  let open Saturating in
  check_int "add" 5 (to_int (add (of_int 2) (of_int 3)));
  (* [of_int] clamps into [0, cap], so [of_int max_int] is the cap. *)
  let cap = to_int (of_int max_int) in
  check "cap saturated" true (is_saturated (of_int max_int));
  check "saturates add" true (is_saturated (add (of_int cap) one));
  check "saturates mul" true (is_saturated (mul (of_int (cap / 2)) (of_int 3)));
  check_int "mul zero" 0 (to_int (mul zero (of_int cap)));
  check "clamp negative" true (to_int (of_int (-5)) = 0);
  check "compare" true (compare one zero > 0)

(* --- Jsonx --- *)

(* Every finite float prints to a lexeme that parses back to the same
   float, still as a [Float]: the JSON mirrors carry health rates and
   bench figures without rounding. *)
let jsonx_float_round_trip =
  let module Jsonx = Wl_json.Jsonx in
  qtest ~count:2000 "jsonx: finite floats round-trip exactly" QCheck2.Gen.float (fun f ->
      (not (Float.is_finite f))
      ||
      match Jsonx.parse (Jsonx.to_string (Jsonx.Float f)) with
      | Ok (Jsonx.Float g) -> Int64.equal (Int64.bits_of_float g) (Int64.bits_of_float f)
      | _ -> false)

let test_jsonx_float_digits () =
  let module Jsonx = Wl_json.Jsonx in
  let show f = Jsonx.to_string (Jsonx.Float f) in
  Alcotest.(check string) "short when exact" "0.25" (show 0.25);
  Alcotest.(check string) "integral" "3.0" (show 3.0);
  Alcotest.(check string) "1/3 exact" "0.33333333333333331" (show (1. /. 3.));
  Alcotest.(check string) "big integral exact" "12345678901234568.0" (show 12345678901234567.)

(* --- Parallel --- *)

let parallel_matches_sequential =
  qtest "parallel map = sequential map" QCheck2.Gen.(pair seed_gen (int_range 0 200))
    (fun (seed, n) ->
      let rng = Prng.create seed in
      let input = Array.init n (fun _ -> Prng.int rng 1000) in
      let f x = (x * x) + 1 in
      Wl_util.Parallel.init ~domains:4 n (fun i -> f input.(i)) = Array.map f input)

let test_parallel_ops () =
  let input = Array.init 100 Fun.id in
  check "init" true
    (Wl_util.Parallel.init ~domains:3 100 Fun.id = input);
  check "empty" true (Wl_util.Parallel.init ~domains:4 0 succ = [||]);
  check "singleton" true (Wl_util.Parallel.init ~domains:4 1 succ = [| 1 |]);
  check "degenerate domains" true (Wl_util.Parallel.init ~domains:0 2 succ = [| 1; 2 |])

let suite =
  [
    ( "util",
      [
        Alcotest.test_case "prng deterministic" `Quick test_prng_deterministic;
        Alcotest.test_case "prng seeds differ" `Quick test_prng_differs_by_seed;
        prng_bounds;
        prng_int_in;
        prng_shuffle_permutes;
        prng_sample;
        Alcotest.test_case "prng float range" `Quick test_prng_float_range;
        Alcotest.test_case "union-find basic" `Quick test_union_find_basic;
        Alcotest.test_case "union-find class sizes" `Quick test_union_find_class_sizes;
        union_find_vs_reference;
        bitset_vs_reference;
        Alcotest.test_case "bitset fill/clear" `Quick test_bitset_fill_clear;
        Alcotest.test_case "bitset bounds" `Quick test_bitset_bounds;
        Alcotest.test_case "bitset iteration order" `Quick test_bitset_iter_order;
        Alcotest.test_case "saturating arithmetic" `Quick test_saturating;
        jsonx_float_round_trip;
        Alcotest.test_case "jsonx float digits" `Quick test_jsonx_float_digits;
        parallel_matches_sequential;
        Alcotest.test_case "parallel operations" `Quick test_parallel_ops;
      ] );
  ]
