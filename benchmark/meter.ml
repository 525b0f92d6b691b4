(* Measurement primitives owned by the benchmark: its own clock, exact
   percentiles over sorted samples, allocation counters and peak RSS.
   Nothing here reads the program's observability stack, so a change to
   that stack cannot change how the benchmark measures. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let secs_of_ns ns = float_of_int ns /. 1e9

(* A growable int buffer: latency samples in ns, op logs, live-path ids.
   Appending is allocation-free until the buffer has to grow. *)
module Buf = struct
  type t = { mutable a : int array; mutable n : int }

  let create cap = { a = Array.make (max 16 cap) 0; n = 0 }

  let add b v =
    if b.n = Array.length b.a then begin
      let a = Array.make (2 * b.n) 0 in
      Array.blit b.a 0 a 0 b.n;
      b.a <- a
    end;
    Array.unsafe_set b.a b.n v;
    b.n <- b.n + 1

  let length b = b.n
  let get b i = b.a.(i)

  (* Remove element [i] by moving the last one into its place. *)
  let swap_remove b i =
    let v = b.a.(i) in
    b.n <- b.n - 1;
    b.a.(i) <- b.a.(b.n);
    v

  let to_array b = Array.sub b.a 0 b.n

  let concat bs = Array.concat (List.map to_array bs)
end

(* A sorted copy of the samples, read with the nearest-rank rule: the
   q-quantile is the smallest sample with at least [q * n] samples at or
   below it.  Exact, no bucketing. *)
type dist = { sorted : int array; sum : int }

let dist samples =
  let sorted = Array.copy samples in
  Array.sort compare sorted;
  { sorted; sum = Array.fold_left ( + ) 0 sorted }

let count d = Array.length d.sorted

let quantile d q =
  let n = Array.length d.sorted in
  if n = 0 then 0
  else
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
    d.sorted.(max 0 (min (n - 1) (rank - 1)))

let mean d = if count d = 0 then 0. else float_of_int d.sum /. float_of_int (count d)

(* The quieter half of a run.  Units (ops or plans), in completion order,
   are cut into [groups] runs of consecutive units, and the half of the
   runs with the lowest median latency is kept.  On a shared machine a
   busy neighbour slows the CPU in episodes of seconds; this discounts such
   episodes, and any other slowness that comes in episodes, up to half the
   run.  Slowness spread over the run is kept in full.  [span.(i)] is the
   wall time unit [i] accounts for.  Returns the kept latencies and the
   sum of their spans. *)
let groups = 30

let quiet_half ~lat ~span =
  let n = Array.length lat in
  let size = max 1 (n / groups) in
  let runs = List.init ((n + size - 1) / size) (fun g -> (g * size, min n ((g + 1) * size))) in
  let median (lo, hi) =
    let a = Array.sub lat lo (hi - lo) in
    Array.sort compare a;
    a.((hi - lo) / 2)
  in
  let ranked = List.sort compare (List.map (fun r -> (median r, r)) runs) in
  let kept = List.filteri (fun i _ -> 2 * i < List.length runs) ranked |> List.map snd in
  let slices a = List.map (fun (lo, hi) -> Array.sub a lo (hi - lo)) kept in
  (Array.concat (slices lat), List.fold_left (Array.fold_left ( + )) 0 (slices span))

let median_f xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Quartiles exactly as Python's [statistics.quantiles(xs, n=4)] gives
   them (its default "exclusive" method); one value is its own quartiles. *)
let quartiles xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then (nan, nan, nan)
  else if n = 1 then (a.(0), a.(0), a.(0))
  else
    let m = n + 1 in
    let cut i =
      let j = min (n - 1) (max 1 (i * m / 4)) in
      let delta = float_of_int ((i * m) - (j * 4)) in
      ((a.(j - 1) *. (4. -. delta)) +. (a.(j) *. delta)) /. 4.
    in
    (cut 1, cut 2, cut 3)

let minor_words () = Gc.minor_words ()


(* Restart this process's VmHWM from its current RSS, so that a run's
   peak is its own and not that of an earlier run in the same process. *)
let reset_peak_rss () =
  try Out_channel.with_open_bin "/proc/self/clear_refs" (fun oc -> output_string oc "5")
  with Sys_error _ -> ()

(* Peak resident set size (VmHWM) of a process, in MiB. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" (if pid = 0 then "self" else string_of_int pid) in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> nan
  | text ->
    String.split_on_char '\n' text
    |> List.find_map (fun line ->
           match String.split_on_char ':' line with
           | [ "VmHWM"; rest ] ->
             Scanf.sscanf_opt (String.trim rest) "%d kB" (fun kb -> float_of_int kb /. 1024.)
           | _ -> None)
    |> Option.value ~default:nan

(* --- results ------------------------------------------------------------- *)

type metric = { name : string; value : float; unit : string; samples : int }

let metric ?(samples = 0) name unit value = { name; value; unit; samples }

(* Answer checks and failed replies, counted against attempts. *)
type tally = { mutable attempted : int; mutable failed : int; mutable notes : string list }

let tally () = { attempted = 0; failed = 0; notes = [] }

let check t ok what =
  t.attempted <- t.attempted + 1;
  if not ok then begin
    t.failed <- t.failed + 1;
    if List.length t.notes < 8 then t.notes <- what () :: t.notes
  end

let count_ops t ~ops ~failed =
  t.attempted <- t.attempted + ops;
  t.failed <- t.failed + failed;
  if failed > 0 then t.notes <- Printf.sprintf "%d operations failed" failed :: t.notes

type env = {
  seed : int;
  seconds : float;
  wl : string;  (** path of the wl binary *)
  dir : string;  (** where sockets, logs and traces go *)
}
