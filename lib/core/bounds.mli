(** Bounds on the number of wavelengths [w(G, P)].

    Always [pi <= clique(conflict) <= w = chi(conflict)]; the paper's
    theorems pin [w] down in special cases, and the replication arguments of
    Theorems 2 and 7 use the independence-number lower bound
    [w >= ceil(|P| / alpha)]. *)

val independence_lower : Instance.t -> int
(** [ceil (|P| / alpha(conflict graph))] — each wavelength class is an
    independent set. *)

val heuristic_upper : Instance.t -> int
(** Colors used by the better of Welsh–Powell and DSATUR on the conflict
    graph. *)

val chromatic_exact : Instance.t -> int
(** [w(G, P)] exactly, via branch and bound on the conflict graph. *)

val theorem6_upper : n_internal_cycles:int -> int -> int
(** The paper's closing remark: iterating the Theorem 6 argument over [C]
    internal cycles bounds [w] by [ceil] of [(4/3)^C pi] — computed here as
    [C] nested integer ceilings. *)
