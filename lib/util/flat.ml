(* Bigarray-backed flat int arrays.

   The CSR instance index and the solver occupancy tables are long-lived
   int tables sized by the instance, not the call.  Keeping them in a
   [Bigarray] puts the payload outside the OCaml heap: the minor
   collector never copies them, the major collector scans one custom
   block instead of n words, and big instances stop inflating GC pause
   times.  Elements are native ints (63-bit), so int-packed words
   (stamp|owner, back|slot) fit unchanged.

   Reads/writes via [Array1.unsafe_get/set] compile to single loads and
   stores, same as [Array.unsafe_get] on an int array.  The checked
   accessors are for cold paths and tests; hot loops validate bounds
   structurally (CSR offsets) and use the unsafe pair. *)

open Bigarray

type t = (int, int_elt, c_layout) Array1.t

let create n : t =
  let a = Array1.create Int c_layout n in
  Array1.fill a 0;
  a

let length (a : t) = Array1.dim a
let get (a : t) i = Array1.get a i
let set (a : t) i v = Array1.set a i v
let unsafe_get (a : t) i = Array1.unsafe_get a i
let unsafe_set (a : t) i v = Array1.unsafe_set a i v
let fill (a : t) v = Array1.fill a v

let of_array src : t =
  let n = Array.length src in
  let a = Array1.create Int c_layout n in
  for i = 0 to n - 1 do
    Array1.unsafe_set a i (Array.unsafe_get src i)
  done;
  a

(* Index operators so call sites read like array code:
   [Flat.(a.%(i))] checked, [Flat.(a.!(i))] unsafe. *)
let ( .%() ) = get
let ( .%()<- ) = set
let ( .!() ) = unsafe_get
let ( .!()<- ) = unsafe_set
