(** From requests to dipaths (the "R" of RWA).

    The paper studies wavelength assignment for a {e given} routing; this
    module supplies the routing stage that chooses one.  The full pipeline
    ({!select}) is k-shortest dipath enumeration per request (one
    reverse-topological sweep over the vertices of the request's dipaths,
    deterministic tie-breaking), a greedy seed by the lexicographic
    bottleneck Dijkstra, then local search swapping
    single requests across their [k] alternatives until the maximum arc
    load stops improving.  The chosen family feeds
    {!Solver.solve} / the engine directly, and {!lower_bound} gives the
    routing-aware (global-packing-number style) floor
    [lower_bound <= load of any routing <= w].

    Simpler routers (hop-count shortest, greedy online min-load) and the
    request families (all-to-all, random) remain for examples and
    benches.

    Every fallible entry point reports a structured {!Error.t}: an
    unroutable request is [Invalid_path], a request naming a vertex outside
    the graph is [Bad_index], request-file syntax errors are [Parse]. *)

open Wl_digraph

type request = Digraph.vertex * Digraph.vertex

val route_shortest :
  Wl_dag.Dag.t -> request list -> (Dipath.t list, Error.t) result
(** Per request, the hop-count-shortest dipath; among the shortest, the
    lexicographically smallest vertex sequence (so the result is a
    deterministic function of the graph, not of adjacency-list order): the
    head of {!k_shortest} [~k:1].  Fails on an unroutable request. *)

val route_min_load :
  Wl_dag.Dag.t -> request list -> (Dipath.t list, Error.t) result
(** Greedy load-aware routing: requests are routed one by one along a path
    minimizing (in lexicographic order) the maximum arc load after routing,
    then hop count — the online heuristic; {!select} is the offline
    pipeline that additionally searches over alternatives. *)

val min_load_router :
  Wl_dag.Dag.t -> request -> (Dipath.t, Error.t) result
(** A stateful online router: each call routes one request on a path
    minimizing (bottleneck load after routing, hop count) given {e all
    previously routed requests}, and charges the chosen path's arcs.
    [route_min_load] is this router folded over a request list. *)

(** {1 The routing stage: enumerate, seed, search} *)

val k_shortest :
  ?k:int -> Wl_dag.Dag.t -> Digraph.vertex -> Digraph.vertex -> Dipath.t list
(** [k_shortest ~k d src dst]: the first [k] (default 8) [src]-[dst]
    dipaths by hop count, ties by lexicographic vertex sequence, in that
    order, so the output is a
    deterministic function of the graph.  In a DAG the order on dipaths
    [v.Q] out of one vertex is the order on their tails [Q], so one
    reverse-topological sweep over the vertices of [src]-[dst] dipaths
    merges each vertex's list from its successors' lists, in O(k) per arc
    with shared tails.  Duplicate-free, and complete (every dipath appears)
    when [k] is at least the number of [src]-[dst] dipaths.  [[]] when
    unreachable, [src = dst] or [k <= 0]. *)

val lower_bound : Wl_dag.Dag.t -> request list -> int
(** A routing-aware lower bound on the maximum arc load of {e any} routing
    of the requests (hence, via [pi <= w], on the wavelength count of any
    RWA solution) — the computable side of the global packing number of
    Lo–Zhang–Wong–Fu: the maximum of

    {ul
    {- the volume bound [ceil (sum of shortest-path hops / number of
       arcs)], and}
    {- the forced-arc bound: the largest number of requests all of whose
       dipaths traverse one common arc (detected by saturating path
       counting; a saturated count conservatively reads as avoidable).
       A forced arc lies on every dipath of its request, so only the arcs
       of one hop-shortest dipath are tested.}}

    Unroutable requests contribute nothing (the bound stays valid for the
    routable sub-multiset). *)

type selection = {
  requests : request array;  (** in input order *)
  routes : Dipath.t array;  (** the chosen dipath per request *)
  k : int;  (** alternatives requested per request *)
  n_alternatives : int;  (** total routes enumerated, seeds included *)
  seed_load : int;  (** max arc load of the greedy seed *)
  max_load : int;  (** after local search; [<= seed_load] always *)
  lower_bound : int;  (** {!lower_bound} of the request multiset *)
  swaps : int;  (** improving swaps the local search applied *)
  rounds : int;  (** full sweeps until the objective stopped improving *)
}
(** The result of the full routing stage.  The chosen family achieves
    [max_load]; [lower_bound <= max_load] bounds how far from
    routing-optimal it can be, and [pi = max_load] for the instance built
    from it. *)

val select :
  ?k:int ->
  Wl_dag.Dag.t ->
  request list ->
  (selection, Error.t) result
(** The full routing stage: enumerate [k] alternatives per request
    ({!k_shortest}), seed greedily with the bottleneck Dijkstra (a dipath
    whose maximum arc load under the requests routed so far is minimum,
    ties by hop count then lowest vertex, as in {!min_load_router}; the
    seed route joins the request's alternative set when the [k] cutoff
    missed it), then
    local search: sweep the requests, re-routing single requests onto an
    alternative whenever that strictly lowers (max arc load, number of arcs
    attaining it); stop after a sweep with no improvement or after 64
    sweeps.  Strict descent guarantees
    [max_load <= seed_load].  Deterministic.  Errors: [Bad_index] for a
    request vertex outside the graph, [Invalid_path] for an unroutable
    request (including [x = y]). *)

val instance_of_selection : Wl_dag.Dag.t -> selection -> Instance.t
(** Wrap the chosen family, in request order, as an instance (the input to
    {!Solver.solve}). *)

(** {1 Request files}

    A line-oriented text format in the spirit of the instance format
    ([lib/core/serial.mli]); [#] starts a comment, blank lines are ignored:

    {v
    wlreq 1              # optional version header
    req 0 5
    req 2 7
    v} *)

val requests_to_string : request list -> string

val requests_of_string : string -> (request list, Error.t) result
(** Errors: [Parse] with the 1-based line number,
    [Unsupported_version] for a [wlreq N] header beyond 1. *)

val read_requests_file : string -> (request list, Error.t) result
(** I/O failures surface as [Io]. *)

(** {1 Request families} *)

val all_to_all : Wl_dag.Dag.t -> request list
(** Every ordered pair admitting a dipath. *)

val random_requests : Wl_util.Prng.t -> Wl_dag.Dag.t -> int -> request list
(** [random_requests rng d k] draws [k] uniformly random routable ordered
    pairs (with repetition).  Returns fewer when the DAG has no routable
    pair at all. *)

val instance_of :
  Wl_dag.Dag.t ->
  (Wl_dag.Dag.t -> request list -> (Dipath.t list, Error.t) result) ->
  request list ->
  (Instance.t, Error.t) result
(** Routes and wraps into an instance. *)
