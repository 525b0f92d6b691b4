type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed = { state = Int64.of_int seed }

(* SplitMix64 output function: advance by the golden gamma, then mix. *)
let bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* Non-negative 62-bit int, safe on 64-bit OCaml. *)
let positive_int t = Int64.to_int (Int64.shift_right_logical (bits64 t) 2)

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  (* Rejection sampling to avoid modulo bias. *)
  let max_int62 = (1 lsl 62) - 1 in
  let limit = max_int62 - (max_int62 mod bound) in
  let rec draw () =
    let v = positive_int t in
    if v >= limit then draw () else v mod bound
  in
  draw ()

let int_in t lo hi =
  if lo > hi then invalid_arg "Prng.int_in: empty range";
  lo + int t (hi - lo + 1)

let float t bound =
  let v = Int64.to_float (Int64.shift_right_logical (bits64 t) 11) in
  bound *. (v /. 9007199254740992.0 (* 2^53 *))

let bool t = Int64.logand (bits64 t) 1L = 1L

let bernoulli t p = float t 1.0 < p

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let choose t a =
  if Array.length a = 0 then invalid_arg "Prng.choose: empty array";
  a.(int t (Array.length a))

let choose_list t l =
  match l with
  | [] -> invalid_arg "Prng.choose_list: empty list"
  | _ -> List.nth l (int t (List.length l))

let sample_without_replacement t k n =
  if k < 0 || k > n then invalid_arg "Prng.sample_without_replacement";
  (* Floyd's algorithm: k iterations, set-based. *)
  let module IS = Set.Make (Int) in
  let rec go j acc =
    if j >= n then acc
    else
      let v = int t (j + 1) in
      let acc = if IS.mem v acc then IS.add j acc else IS.add v acc in
      go (j + 1) acc
  in
  IS.elements (go (n - k) IS.empty)

let permutation t n =
  let a = Array.init n (fun i -> i) in
  shuffle t a;
  a
