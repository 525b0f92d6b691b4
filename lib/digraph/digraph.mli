(** Simple directed graphs (no self-loops, no parallel arcs).

    Vertices are dense integers [0 .. n_vertices - 1]; arcs get dense integer
    ids [0 .. n_arcs - 1] in insertion order.  The structure is append-only:
    algorithms that conceptually delete arcs (the Theorem 1 peeling, the
    generator repair loops) either work over arc orderings or rebuild a graph
    from a filtered arc list ({!of_arcs}/{!arcs}) — this keeps every id
    stable, which the dipath and load machinery depends on.

    {b Storage.}  A forward star in flat int arrays.  Per arc: its tail,
    its head, and the next arc out of its tail and into its head.  Per
    vertex: the first and last arc of its out- and in-lists and their
    lengths; a new arc is linked after the last, so every neighbour list
    is in insertion order.  Arrays grow by doubling; {!add_vertices} and
    {!of_arcs} size them from their counts.  An open-addressing int
    table keyed by [u * 2^30 + v], at most half full, maps an arc's ends
    to its id.

    {b Costs.}  {!add_arc}, {!find_arc} and {!mem_arc} are O(1) expected;
    degrees are O(1).  {!copy} is a few array blits, O(n + m) words.  The
    walkers ({!iter_succ}, {!iter_pred}, {!iter_out_arcs} and
    {!fold_succ}) allocate nothing of
    their own, so a hot loop that hoists its closure walks a graph
    without touching the minor heap.  {!succ} and {!pred} build a fresh
    list per call, for callers that pattern-match one.

    Optional string labels support readable DOT output and the text format. *)

type t

type vertex = int
type arc = int

(** {1 Construction} *)

val max_vertices : int
(** [2^20]: the most vertices a graph may hold.  Arc keys need vertex ids
    below [2^30]; [2^20] covers every generator and workload, and bounds
    the vertex arrays a reader sizes from an untrusted count. *)

val create : unit -> t

val add_vertex : ?label:string -> t -> vertex
(** Appends a fresh vertex and returns its id.  Raises [Invalid_argument]
    when the graph already holds {!max_vertices} vertices. *)

val add_vertices : t -> int -> unit
(** [add_vertices g k] appends [k] unlabeled vertices (none when
    [k <= 0]), growing the vertex arrays once.  Raises [Invalid_argument]
    when that would exceed {!max_vertices}. *)

val add_arc : t -> vertex -> vertex -> arc
(** [add_arc g u v] appends the arc [u -> v] and returns its id.

    Raises [Invalid_argument] if [u = v], if either endpoint is not a vertex,
    or if the arc already exists. *)

val of_arcs : ?labels:string array -> int -> (vertex * vertex) list -> t
(** [of_arcs n arcs] builds a graph on [n] vertices with the given arcs,
    assigning arc ids in list order. *)

val copy : t -> t

(** {1 Accessors} *)

val n_vertices : t -> int
val n_arcs : t -> int

val arc_src : t -> arc -> vertex
val arc_dst : t -> arc -> vertex
val arc_endpoints : t -> arc -> vertex * vertex

val find_arc : t -> vertex -> vertex -> arc option
(** Arc id of [u -> v], if present. *)

val mem_arc : t -> vertex -> vertex -> bool

val out_degree : t -> vertex -> int
val in_degree : t -> vertex -> int

val succ : t -> vertex -> vertex list
(** Out-neighbors, in insertion order, as a fresh list. *)

val pred : t -> vertex -> vertex list

val arcs : t -> (vertex * vertex) list
(** All arcs [(src, dst)] in id order. *)

val vertices : t -> vertex list

(** {1 Labels} *)

val label : t -> vertex -> string
(** The vertex's label; defaults to ["v<i>"] when none was assigned. *)

val set_label : t -> vertex -> string -> unit

val vertex_of_label : t -> string -> vertex option
(** First vertex carrying the given explicit label. *)

(** {1 Iteration} *)

val iter_succ : (vertex -> unit) -> t -> vertex -> unit
(** [iter_succ f g v] applies [f] to the out-neighbors of [v], in
    insertion order.  Like every walker here it raises
    [Invalid_argument] when [v] is not a vertex, and an arc added while
    it runs may or may not be visited. *)

val iter_pred : (vertex -> unit) -> t -> vertex -> unit
(** In-neighbors, in insertion order. *)

val iter_out_arcs : (arc -> unit) -> t -> vertex -> unit
(** Arcs leaving [v], in insertion order (so in increasing id order). *)

val fold_succ : (vertex -> 'a -> 'a) -> t -> vertex -> 'a -> 'a
(** [fold_succ f g v init] folds [f] over the out-neighbors of [v] in
    insertion order, first neighbor innermost. *)

val iter_vertices : (vertex -> unit) -> t -> unit
val iter_arcs : (arc -> vertex -> vertex -> unit) -> t -> unit
val fold_arcs : (arc -> vertex -> vertex -> 'a -> 'a) -> t -> 'a -> 'a

(** {1 Derived graphs} *)

val reverse : t -> t
(** Graph with every arc flipped; arc ids are preserved (arc [i] of the
    result is the reverse of arc [i] of the argument). Labels carry over. *)
