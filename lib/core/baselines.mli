(** Baseline wavelength-assignment strategies.

    Practical RWA systems often assign wavelengths online with first-fit;
    these baselines quantify what the paper's constructive optimum buys.
    On a DAG without internal cycle Theorem 1 guarantees [pi] wavelengths,
    while first-fit can need more — the benches measure the gap. *)

val first_fit : Instance.t -> Assignment.t
(** Process dipaths in family order; give each the smallest wavelength not
    used by an already-assigned conflicting dipath.  Valid by construction;
    uses at most [max over i of (number of earlier conflicts of i) + 1]
    wavelengths. *)

val first_fit_random : Wl_util.Prng.t -> Instance.t -> Assignment.t
(** First-fit in a uniformly random order. *)
