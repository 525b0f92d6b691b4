(* Trace context: deterministic 62-bit id pairs plus a per-domain
   ambient cell.  Ids stay strictly positive OCaml ints so they can ride
   through int-only surfaces (flight ring cells, HDR exemplar atomics,
   wire tokens) without boxing. *)

type t = { trace_id : int; span_id : int; parent_id : int }

let none = { trace_id = 0; span_id = 0; parent_id = 0 }
let is_none c = c.trace_id = 0

(* --- id generation -------------------------------------------------------- *)

let mask62 = (1 lsl 62) - 1

(* splitmix64's finalizer with the multipliers truncated to fit a tagged
   int, masked to 62 bits.  Quality hardly matters here — ids only need
   to be distinct and reproducible — but the avalanche keeps nearby
   seeds from yielding nearby ids. *)
let mix z =
  let z = (z lxor (z lsr 30)) * 0x3f58476d1ce4e5b9 in
  let z = (z lxor (z lsr 27)) * 0x14d049bb133111eb in
  (z lxor (z lsr 31)) land mask62

type gen = { mutable state : int }

let gamma = 0x1e3779b97f4a7c15

let generator seed = { state = mix (seed + gamma) }

let next g =
  g.state <- (g.state + gamma) land mask62;
  let id = mix g.state in
  if id = 0 then 1 else id

let root g =
  let trace_id = next g in
  let span_id = next g in
  { trace_id; span_id; parent_id = 0 }

let child g parent =
  if is_none parent then root g
  else { trace_id = parent.trace_id; span_id = next g; parent_id = parent.span_id }

(* --- ambient per-domain cell ---------------------------------------------- *)

type cell = { mutable c_trace : int; mutable c_span : int; mutable c_parent : int }

let key = Domain.DLS.new_key (fun () -> { c_trace = 0; c_span = 0; c_parent = 0 })

let set c =
  let cell = Domain.DLS.get key in
  cell.c_trace <- c.trace_id;
  cell.c_span <- c.span_id;
  cell.c_parent <- c.parent_id

let current () =
  let cell = Domain.DLS.get key in
  { trace_id = cell.c_trace; span_id = cell.c_span; parent_id = cell.c_parent }

let current_trace () = (Domain.DLS.get key).c_trace
(* --- wire form ------------------------------------------------------------- *)

let hex = Printf.sprintf "%x"

let to_string c =
  if is_none c then invalid_arg "Ctx.to_string: none";
  Printf.sprintf "%x:%x" c.trace_id c.span_id

(* Strict hex: [int_of_string "0x..."] would also accept underscores and
   signs, which must stay protocol errors on the wire. *)
let hex_ok s =
  let n = String.length s in
  n > 0 && n <= 16
  &&
  let ok = ref true in
  String.iter
    (fun ch ->
      match ch with
      | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> ()
      | _ -> ok := false)
    s;
  !ok

let of_string s =
  match String.index_opt s ':' with
  | None -> None
  | Some i ->
    let a = String.sub s 0 i in
    let b = String.sub s (i + 1) (String.length s - i - 1) in
    if not (hex_ok a && hex_ok b) then None
    else
      let trace_id = int_of_string ("0x" ^ a) in
      let span_id = int_of_string ("0x" ^ b) in
      if trace_id = 0 || trace_id land lnot mask62 <> 0 || span_id land lnot mask62 <> 0
      then None
      else Some { trace_id; span_id; parent_id = 0 }
