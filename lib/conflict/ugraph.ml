module Bitset = Wl_util.Bitset

(* [deg.(v)] is the cardinal of [adj.(v)], kept by [add_edge] so that
   [degree] is O(1): the degree-ordered heuristics call it twice per sort
   comparison. *)
type t = { n : int; adj : Bitset.t array; deg : int array; mutable m : int }

let create n =
  if n < 0 then invalid_arg "Ugraph.create";
  { n; adj = Array.init n (fun _ -> Bitset.create n); deg = Array.make n 0; m = 0 }

let n_vertices t = t.n
let n_edges t = t.m

let check t v = if v < 0 || v >= t.n then invalid_arg "Ugraph: vertex out of range"

let mem_edge t u v =
  check t u;
  check t v;
  u <> v && Bitset.mem t.adj.(u) v

let add_edge t u v =
  check t u;
  check t v;
  if u = v then invalid_arg "Ugraph.add_edge: self-loop";
  if not (Bitset.mem t.adj.(u) v) then begin
    Bitset.add t.adj.(u) v;
    Bitset.add t.adj.(v) u;
    t.deg.(u) <- t.deg.(u) + 1;
    t.deg.(v) <- t.deg.(v) + 1;
    t.m <- t.m + 1
  end

let neighbors t v =
  check t v;
  Bitset.elements t.adj.(v)

let neighbor_set t v =
  check t v;
  t.adj.(v)

let degree t v =
  check t v;
  t.deg.(v)

let iter_edges f t =
  (* Each edge once as (u, v) with u < v, in lexicographic order — walking
     the upper triangle of the adjacency bitsets directly ([iter_ge]
     skips the lower half at word granularity), no list materialized. *)
  for u = 0 to t.n - 1 do
    Bitset.iter_ge (fun v -> f u v) t.adj.(u) (u + 1)
  done

let complement t =
  let c = create t.n in
  for u = 0 to t.n - 1 do
    for v = u + 1 to t.n - 1 do
      if not (mem_edge t u v) then add_edge c u v
    done
  done;
  c
