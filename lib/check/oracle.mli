(** Named fuzzing oracles: seeded subject generators paired with checks.

    Each oracle bundles a deterministic generator ([generate seed], always
    the same subject for the same seed) with a total check ([None] when
    every claim held).  The differential oracles pit independent solver
    arms against each other — the paper's sharp statements make every arm
    an oracle for every other:

    {ul
    {- [thm1_dsatur]: on internal-cycle-free DAGs, Theorem 1 must be
       valid and use exactly [pi] colors, while DSATUR (independent arm,
       via the conflict graph) must be valid and can never beat [pi];}
    {- [solver_exact]: {!Wl_core.Solver.solve} vs the exact chromatic
       number of the conflict graph on small instances — an [optimal]
       report must agree with it exactly, and no arm may go below it;}
    {- [engine]: random op sequences against a warm {!Wl_engine.Engine}
       session, compared op by op with a fresh [Solver.solve] of the
       materialized instance (the PR-3 equivalence property, here in
       shrinkable form);}
    {- [serial]: text v1/v2 and JSON round-trips of instances and op
       scripts must reproduce the structure byte-stably;}
    {- [invariants]: the paper's unconditional claims on a mixed diet of
       generated classes — validity, [pi <= w], [w = pi] without internal
       cycles, [K_{2,3}]-freeness of UPP conflict graphs (Corollary 5),
       the Theorem 6 ceiling, and a full {!Wl_core.Certificate} audit.}}

    The per-theorem re-validations ({!sweeps}) are oracles of the same
    shape, so one fuzz/shrink pipeline serves both.

    Checks guard their own applicability: a subject outside an oracle's
    structural class (which the shrinker produces on purpose) reads as a
    pass, never as a spurious failure. *)

type t = {
  name : string;
  doc : string;  (** one-line description, shown by [wl fuzz --list] *)
  generate : int -> Subject.t;  (** deterministic in the seed *)
  check : Subject.t -> string option;  (** [None] = every claim held *)
}

val thm1_dsatur : t
val solver_exact : t
val engine : t
val serial : t
val invariants : t

val routing_packing : t
(** The full routing stage ({!Wl_core.Routing.select}) on fuzzed request
    sets, the requests carried as routed dipaths so the stock shrinker
    applies: the packing-number-style lower bound may never exceed the
    achieved load, the achieved load may never exceed the wavelength
    count of the solved family, and local search may never end above the
    greedy seed. *)

val client_vs_engine : t
(** A {!Wl_serve.Client} loopback session (full [wlrpc/1] codec round
    trip on every call, text and JSON encodings both) replayed op-for-op
    against a bare {!Wl_engine.Engine} session: outcomes, reports, stats,
    colors and snapshots must agree exactly — the service boundary may
    not change observable engine behavior. *)

val wlrpc_frame : t
(** Frame- and payload-level robustness of the [wlrpc/1] codecs:
    encode/decode round trips are exact (requests, replies and every
    {!Wl_core.Error.t} constructor, in both encodings), and corrupted
    frames — truncated, oversized, zero-length or garbage prefixes,
    flipped payload bytes — decode to protocol errors, never exceptions
    or hangs. *)

val sweeps : t list
(** One randomized re-validation per theorem, in this order: [thm1]
    (Theorem 1: valid, exactly [pi] colors), [thm2] (Theorem 2's family:
    [pi = 2], odd-cycle conflict graph), [thm6] (within
    [ceil(4 pi/3)]), [thm6multi] (the iterated bound), [casec] (case C
    and a verified internal-cycle witness) and [grooming]
    ([Grooming.satisfy] within [w]).  Subjects are instance-only.  The
    [thm2]/[casec] claims are about the DAG alone: their instances carry
    an empty family and the check rebuilds the Theorem 2 gap family.
    [bin/stress] runs them through {!Fuzz.run} at scale. *)

val selftest : t
(** A deliberately false claim ("no instance has load [>= 2]") used to
    exercise the whole catch/shrink/reproduce pipeline deterministically.
    Not part of {!all}; reachable by name. *)

val all : t list
(** The differential oracles above followed by {!sweeps}.  Excludes
    {!selftest}. *)

val find : string -> t option
(** Lookup by name over {!all} plus {!selftest}. *)

val run : t -> int -> (int * string) option
(** Generate and check one seed; exceptions from either phase are captured
    as failures.  Returns [(seed, reason)] on failure. *)

val take_flight : unit -> (string * string) option
(** Pop the [(jsonl, chrome)] flight-recorder dump left by the last
    failing {!engine} check, if any.  A side channel with last-writer
    semantics: only meaningful right after a sequential check, which is
    how {!Fuzz} attaches dumps to shrunk reproducers. *)
