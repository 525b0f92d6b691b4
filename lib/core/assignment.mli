(** Wavelength assignments: one color per family member.

    An assignment is valid when any two dipaths sharing an arc carry
    different colors — the WDM constraint of the paper.  [w(G, P)] is the
    minimum number of colors over valid assignments. *)

type t = int array
(** [t.(i)] is the wavelength of family member [i] (colors from 0). *)

val is_valid : Instance.t -> t -> bool

val first_conflict : Instance.t -> t -> (int * int * Wl_digraph.Digraph.arc) option
(** A monochromatic conflicting pair and a shared arc, if the assignment is
    invalid; [None] when valid.  Also reports indices out of range or
    negative colors as [Invalid_argument]. *)

val n_wavelengths : t -> int
(** [1 + max] (0 for the empty family) — meaningful after {!normalize}. *)

val normalize : t -> t
(** Renames wavelengths onto [0 .. k-1] preserving classes. *)

val of_conflict_coloring : Wl_conflict.Coloring.t -> t
(** Conflict-graph colorings index vertices exactly like family members. *)

