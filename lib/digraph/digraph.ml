type vertex = int
type arc = int

(* Forward-star storage in flat int arrays, each sized by a capacity
   that doubles (or is reserved from a known count) and filled up to
   [nv] or [na].  Per arc: its ends, and the next arc in its tail's
   out-list and in its head's in-list (-1 ends a list).  Per vertex: the
   first and last arc of each list and the list's length; a new arc is
   linked after the last one, so every list is in insertion order.
   [slots] is an open-addressing table of arc ids (-1 = empty), probed
   linearly from the hash of u * 2^30 + v; its size is a power of two
   at least twice the arc count. *)
type t = {
  mutable nv : int;
  mutable na : int;
  mutable out_first : int array;
  mutable out_last : int array;
  mutable out_deg : int array;
  mutable in_first : int array;
  mutable in_last : int array;
  mutable in_deg : int array;
  mutable labels : string option array;
  mutable src : int array;
  mutable dst : int array;
  mutable next_out : int array;
  mutable next_in : int array;
  mutable slots : int array;
  mutable bits : int; (* log2 (Array.length slots) *)
}

let min_bits = 3

let create () =
  {
    nv = 0;
    na = 0;
    out_first = [||];
    out_last = [||];
    out_deg = [||];
    in_first = [||];
    in_last = [||];
    in_deg = [||];
    labels = [||];
    src = [||];
    dst = [||];
    next_out = [||];
    next_in = [||];
    slots = Array.make (1 lsl min_bits) (-1); (* alloc-ok: per graph *)
    bits = min_bits;
  }

let n_vertices g = g.nv
let n_arcs g = g.na

let check_vertex g v =
  if v < 0 || v >= g.nv then invalid_arg "Digraph: no such vertex"

let check_arc g a = if a < 0 || a >= g.na then invalid_arg "Digraph: no such arc"

(* --- growth (cold: amortized by doubling or reserved up front) ---------- *)

let resize a cap fill =
  let b = Array.make cap fill in (* alloc-ok: capacity growth *)
  Array.blit a 0 b 0 (min (Array.length a) cap);
  b

let reserve_vertices g cap =
  if cap > Array.length g.out_first then begin
    g.out_first <- resize g.out_first cap (-1);
    g.out_last <- resize g.out_last cap (-1);
    g.out_deg <- resize g.out_deg cap 0;
    g.in_first <- resize g.in_first cap (-1);
    g.in_last <- resize g.in_last cap (-1);
    g.in_deg <- resize g.in_deg cap 0;
    g.labels <- resize g.labels cap None
  end

let hash g u v = (((u * 0x40000000) + v) * 0x2545F4914F6CDD1D) lsr (63 - g.bits)

(* Arc id of u -> v, or -1; both ends must be vertices. *)
let lookup g u v =
  let mask = Array.length g.slots - 1 in
  let i = ref (hash g u v) in
  let found = ref (-2) in
  while !found = -2 do
    let a = g.slots.(!i) in
    if a < 0 then found := -1
    else if g.src.(a) = u && g.dst.(a) = v then found := a
    else i := (!i + 1) land mask
  done;
  !found

let insert_slot g a =
  let mask = Array.length g.slots - 1 in
  let i = ref (hash g g.src.(a) g.dst.(a)) in
  while g.slots.(!i) >= 0 do
    i := (!i + 1) land mask
  done;
  g.slots.(!i) <- a

let reserve_arcs g cap =
  if cap > Array.length g.src then begin
    g.src <- resize g.src cap 0;
    g.dst <- resize g.dst cap 0;
    g.next_out <- resize g.next_out cap (-1);
    g.next_in <- resize g.next_in cap (-1)
  end;
  if 2 * cap > Array.length g.slots then begin
    let bits = ref g.bits in
    while 1 lsl !bits < 2 * cap do
      incr bits
    done;
    g.bits <- !bits;
    g.slots <- Array.make (1 lsl !bits) (-1); (* alloc-ok: capacity growth *)
    for a = 0 to g.na - 1 do
      insert_slot g a
    done
  end

(* --- construction --------------------------------------------------------- *)

let max_vertices = 1 lsl 20

let too_many () = invalid_arg "Digraph: more than max_vertices vertices"

let add_vertex ?label g =
  let v = g.nv in
  if v >= max_vertices then too_many ();
  if v = Array.length g.out_first then reserve_vertices g (max 8 (2 * v));
  g.nv <- v + 1;
  g.labels.(v) <- label;
  v

let add_vertices g k =
  if k > max_vertices - g.nv then too_many ();
  if k > 0 then begin
    reserve_vertices g (g.nv + k);
    g.nv <- g.nv + k
  end

let find_arc g u v =
  check_vertex g u;
  check_vertex g v;
  match lookup g u v with -1 -> None | a -> Some a

let mem_arc g u v =
  check_vertex g u;
  check_vertex g v;
  lookup g u v >= 0

let add_arc g u v =
  check_vertex g u;
  check_vertex g v;
  if u = v then invalid_arg "Digraph.add_arc: self-loop";
  if lookup g u v >= 0 then invalid_arg "Digraph.add_arc: duplicate arc";
  let a = g.na in
  if a = Array.length g.src then reserve_arcs g (max 8 (2 * a));
  g.na <- a + 1;
  g.src.(a) <- u;
  g.dst.(a) <- v;
  g.next_out.(a) <- -1;
  g.next_in.(a) <- -1;
  if g.out_last.(u) < 0 then g.out_first.(u) <- a else g.next_out.(g.out_last.(u)) <- a;
  g.out_last.(u) <- a;
  g.out_deg.(u) <- g.out_deg.(u) + 1;
  if g.in_last.(v) < 0 then g.in_first.(v) <- a else g.next_in.(g.in_last.(v)) <- a;
  g.in_last.(v) <- a;
  g.in_deg.(v) <- g.in_deg.(v) + 1;
  insert_slot g a;
  a

let of_arcs ?labels n arcs =
  let g = create () in
  (match labels with
  | None -> add_vertices g n
  | Some ls ->
    if Array.length ls <> n then invalid_arg "Digraph.of_arcs: labels length";
    reserve_vertices g n;
    Array.iter (fun l -> ignore (add_vertex ~label:l g)) ls);
  reserve_arcs g (List.length arcs);
  List.iter (fun (u, v) -> ignore (add_arc g u v)) arcs;
  g

let copy g =
  {
    g with
    out_first = Array.sub g.out_first 0 g.nv;
    out_last = Array.sub g.out_last 0 g.nv;
    out_deg = Array.sub g.out_deg 0 g.nv;
    in_first = Array.sub g.in_first 0 g.nv;
    in_last = Array.sub g.in_last 0 g.nv;
    in_deg = Array.sub g.in_deg 0 g.nv;
    labels = Array.sub g.labels 0 g.nv;
    src = Array.sub g.src 0 g.na;
    dst = Array.sub g.dst 0 g.na;
    next_out = Array.sub g.next_out 0 g.na;
    next_in = Array.sub g.next_in 0 g.na;
    slots = Array.copy g.slots;
  }

(* --- accessors ------------------------------------------------------------ *)

let arc_src g a =
  check_arc g a;
  g.src.(a)

let arc_dst g a =
  check_arc g a;
  g.dst.(a)

let arc_endpoints g a =
  check_arc g a;
  (g.src.(a), g.dst.(a))

let out_degree g v =
  check_vertex g v;
  g.out_deg.(v)

let in_degree g v =
  check_vertex g v;
  g.in_deg.(v)

(* One pass along [next] from arc [a], consing [ends] in order. *)
let[@tail_mod_cons] rec to_list next ends a =
  if a < 0 then [] else ends.(a) :: to_list next ends next.(a)

let succ g v =
  check_vertex g v;
  to_list g.next_out g.dst g.out_first.(v)

let pred g v =
  check_vertex g v;
  to_list g.next_in g.src g.in_first.(v)

let arcs g = List.init g.na (fun a -> (g.src.(a), g.dst.(a)))

let vertices g = List.init g.nv Fun.id

(* --- walkers: no allocation of their own ---------------------------------- *)

(* Along [next] from arc [first]: [f] gets [ends.(a)] for each arc [a]. *)
let walk f next ends first =
  let a = ref first in
  while !a >= 0 do
    let x = !a in
    a := next.(x);
    f ends.(x)
  done

let iter_succ f g v =
  check_vertex g v;
  walk f g.next_out g.dst g.out_first.(v)

let iter_pred f g v =
  check_vertex g v;
  walk f g.next_in g.src g.in_first.(v)

let iter_out_arcs f g v =
  check_vertex g v;
  let a = ref g.out_first.(v) in
  while !a >= 0 do
    let x = !a in
    a := g.next_out.(x);
    f x
  done

let fold_succ f g v init =
  check_vertex g v;
  let acc = ref init and a = ref g.out_first.(v) in
  while !a >= 0 do
    let x = !a in
    a := g.next_out.(x);
    acc := f g.dst.(x) !acc
  done;
  !acc

let iter_vertices f g =
  for v = 0 to g.nv - 1 do
    f v
  done

let iter_arcs f g =
  for a = 0 to g.na - 1 do
    f a g.src.(a) g.dst.(a)
  done

let fold_arcs f g init =
  let acc = ref init in
  for a = 0 to g.na - 1 do
    acc := f a g.src.(a) g.dst.(a) !acc
  done;
  !acc

(* --- labels --------------------------------------------------------------- *)

let label g v =
  check_vertex g v;
  match g.labels.(v) with Some l -> l | None -> Printf.sprintf "v%d" v

let set_label g v l =
  check_vertex g v;
  g.labels.(v) <- Some l

let vertex_of_label g l =
  let rec go v =
    if v >= g.nv then None
    else
      match g.labels.(v) with
      | Some l' when String.equal l l' -> Some v
      | _ -> go (v + 1)
  in
  go 0

(* --- derived graphs ------------------------------------------------------- *)

let reverse g =
  let g' = create () in
  reserve_vertices g' g.nv;
  for v = 0 to g.nv - 1 do
    ignore (add_vertex ?label:g.labels.(v) g')
  done;
  reserve_arcs g' g.na;
  iter_arcs (fun _ u v -> ignore (add_arc g' v u)) g;
  g'
