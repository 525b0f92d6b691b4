(* Log-linear ("HDR") latency histograms over atomic int cells.

   Bucket scheme, with [sub_bits] = 6:
   - values in [0, 2^sub_bits) are exact: bucket index = value;
   - a value with most-significant bit k >= sub_bits lands in tier
     [k - sub_bits + 1], which splits [2^k, 2^(k+1)) into
     [half = 2^(sub_bits-1)] linear sub-buckets of width 2^(k-sub_bits+1):
       index = half * (k - sub_bits + 1) + (v lsr (k - sub_bits + 1))
     (the top half of each tier's sub-bucket range, since
     v lsr shift is in [half, 2*half)).
   The bucket *ceiling* — the largest value sharing the bucket — is what
   quantile queries report, clamped to the largest recorded value, so
   answers are exact over buckets, never above the max, and within
   2^(1-sub_bits) relative error of the true order statistic.

   The record path is lock-free and allocation-free: fetch_and_add on
   immediate ints, CAS loops via tail recursion (no ref cells), no float
   arithmetic.  Everything else (quantiles, snapshots, merge) is cold. *)

let sub_bits = 6
let sub_count = 1 lsl sub_bits (* the exact range *)
let half = sub_count / 2 (* sub-buckets per tier *)

type t = {
  cells : int Atomic.t array;
  total : int Atomic.t;
  sumv : int Atomic.t;
  mn : int Atomic.t;  (* max_int when empty *)
  mx : int Atomic.t;  (* -1 when empty *)
  (* Exemplar latch: value and trace id of the worst traced sample seen
     since the last reset.  [ex_trace = 0] means no exemplar; the pair
     is two independent atomics (a racing writer can momentarily pair a
     value with a neighbouring trace — acceptable for a monitoring
     pointer, and the alternative would allocate on the record path). *)
  ex_v : int Atomic.t;
  ex_trace : int Atomic.t;
}

(* Highest tier holds msb 62 (max positive int): index range ends at
   half * (65 - sub_bits) - 1. *)
let size = half * (65 - sub_bits)

let create () =
  {
    cells = Array.init size (fun _ -> Atomic.make 0) (* alloc-ok *);
    total = Atomic.make 0;
    sumv = Atomic.make 0;
    mn = Atomic.make max_int;
    mx = Atomic.make (-1);
    ex_v = Atomic.make (-1);
    ex_trace = Atomic.make 0;
  }

(* Most significant bit position of v >= 1, by tail recursion (the record
   path must not allocate, and ref cells would on a non-flambda build). *)
let rec msb_from v k = if v <= 1 then k else msb_from (v lsr 1) (k + 1)

let index v =
  if v < sub_count then v
  else
    let k = msb_from (v lsr sub_bits) sub_bits in
    let shift = k - sub_bits + 1 in
    (half * shift) + (v lsr shift)

(* Largest value mapping to bucket [i]. *)
let bucket_ceiling i =
  if i < sub_count then i
  else
    let tier = (i / half) - 1 in
    let top = i - (tier * half) in
    ((top + 1) lsl tier) - 1

let round_up v =
  let v = if v < 0 then 0 else v in
  bucket_ceiling (index v)

let rec cas_min a v =
  let cur = Atomic.get a in
  if v < cur && not (Atomic.compare_and_set a cur v) then cas_min a v

let rec cas_max a v =
  let cur = Atomic.get a in
  if v > cur && not (Atomic.compare_and_set a cur v) then cas_max a v

let record_traced t v ~trace =
  let v = if v < 0 then 0 else v in
  ignore (Atomic.fetch_and_add (Array.unsafe_get t.cells (index v)) 1);
  ignore (Atomic.fetch_and_add t.total 1);
  ignore (Atomic.fetch_and_add t.sumv v);
  cas_min t.mn v;
  cas_max t.mx v;
  if trace <> 0 && v >= Atomic.get t.ex_v then begin
    Atomic.set t.ex_v v;
    Atomic.set t.ex_trace trace
  end

let record t v = record_traced t v ~trace:0

let exemplar t =
  let trace = Atomic.get t.ex_trace in
  if trace = 0 then None else Some (Atomic.get t.ex_v, trace)

let count t = Atomic.get t.total
let sum t = Atomic.get t.sumv
let min_value t = if count t = 0 then 0 else Atomic.get t.mn
let max_value t = if count t = 0 then 0 else Atomic.get t.mx

let quantile t q =
  let n = Atomic.get t.total in
  if n = 0 then 0
  else begin
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
    let rank = if rank < 1 then 1 else if rank > n then n else rank in
    let len = Array.length t.cells in
    let rec go i acc =
      if i >= len then bucket_ceiling (len - 1)
      else
        let acc = acc + Atomic.get t.cells.(i) in
        if acc >= rank then bucket_ceiling i else go (i + 1) acc
    in
    min (go 0 0) (max_value t)
  end

let merge_into ~dst src =
  Array.iteri
    (fun i c ->
      let n = Atomic.get c in
      if n <> 0 then ignore (Atomic.fetch_and_add dst.cells.(i) n))
    src.cells;
  ignore (Atomic.fetch_and_add dst.total (Atomic.get src.total));
  ignore (Atomic.fetch_and_add dst.sumv (Atomic.get src.sumv));
  if count src > 0 then begin
    cas_min dst.mn (Atomic.get src.mn);
    cas_max dst.mx (Atomic.get src.mx)
  end;
  (match exemplar src with
  | Some (v, trace) when v >= Atomic.get dst.ex_v ->
    Atomic.set dst.ex_v v;
    Atomic.set dst.ex_trace trace
  | _ -> ())

let reset t =
  Array.iter (fun c -> Atomic.set c 0) t.cells;
  Atomic.set t.total 0;
  Atomic.set t.sumv 0;
  Atomic.set t.mn max_int;
  Atomic.set t.mx (-1);
  Atomic.set t.ex_v (-1);
  Atomic.set t.ex_trace 0

type snapshot = {
  count : int;
  sum : int;
  min : int;
  max : int;
  p50 : int;
  p90 : int;
  p99 : int;
  p999 : int;
}

let snapshot t =
  {
    count = count t;
    sum = sum t;
    min = min_value t;
    max = max_value t;
    p50 = quantile t 0.5;
    p90 = quantile t 0.9;
    p99 = quantile t 0.99;
    p999 = quantile t 0.999;
  }

let pp_time ppf ns =
  if ns < 1_000 then Format.fprintf ppf "%dns" ns
  else if ns < 1_000_000 then Format.fprintf ppf "%.1fus" (float_of_int ns /. 1e3)
  else if ns < 1_000_000_000 then
    Format.fprintf ppf "%.2fms" (float_of_int ns /. 1e6)
  else Format.fprintf ppf "%.2fs" (float_of_int ns /. 1e9)

let pp_ns ppf s =
  Format.fprintf ppf "n=%d p50=%a p90=%a p99=%a p999=%a max=%a" s.count pp_time
    s.p50 pp_time s.p90 pp_time s.p99 pp_time s.p999 pp_time s.max

module Slo = struct
  (* Single-writer sliding window of over-target bits.  An engine session
     owns exactly one and records from whichever domain runs the op; the
     engine already serializes ops per session, so plain mutable fields
     suffice and keep [record] allocation-free.  The budget comparison is
     integer-only (parts per million) for the same reason. *)
  type t = {
    target_ns : int;
    budget : float;
    budget_ppm : int;
    bits : int array;
    mutable idx : int;
    mutable filled : int;
    mutable over : int;
    mutable total : int;
    mutable total_over : int;
    mutable latched : bool;
  }

  (* The window of recent observations, and how many of them must be in
     before the tracker may trip. *)
  let window = 512
  let min_fill = window / 8

  let create ~target_ns ~budget =
    {
      target_ns;
      budget;
      budget_ppm = int_of_float ((budget *. 1e6) +. 0.5);
      bits = Array.make window 0 (* alloc-ok *);
      idx = 0;
      filled = 0;
      over = 0;
      total = 0;
      total_over = 0;
      latched = false;
    }

  let record t lat =
    let b = if lat > t.target_ns then 1 else 0 in
    if t.filled = window then t.over <- t.over - Array.unsafe_get t.bits t.idx
    else t.filled <- t.filled + 1;
    Array.unsafe_set t.bits t.idx b;
    t.over <- t.over + b;
    t.idx <- (if t.idx + 1 = window then 0 else t.idx + 1);
    t.total <- t.total + 1;
    t.total_over <- t.total_over + b;
    if
      (not t.latched)
      && t.filled >= min_fill
      && t.over * 1_000_000 > t.filled * t.budget_ppm
    then t.latched <- true

  let burn_rate t =
    if t.filled = 0 then 0. else float_of_int t.over /. float_of_int t.filled

  let tripped t = t.latched

  type state = {
    target_ns : int;
    budget : float;
    window : int;
    observed : int;
    over : int;
    total : int;
    total_over : int;
    burn : float;
    tripped : bool;
  }

  let state (t : t) =
    {
      target_ns = t.target_ns;
      budget = t.budget;
      window;
      observed = t.filled;
      over = t.over;
      total = t.total;
      total_over = t.total_over;
      burn = burn_rate t;
      tripped = t.latched;
    }

  let pp ppf s =
    Format.fprintf ppf "slo(target=%a budget=%.2f%% burn=%.2f%% %s)"
      pp_time s.target_ns (100. *. s.budget) (100. *. s.burn)
      (if s.tripped then "TRIPPED" else "ok")
end
