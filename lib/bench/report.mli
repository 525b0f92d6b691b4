(** Rendering the bench trajectory as a terminal dashboard.

    The view reads the {!Wl_obs.Store} history (last entry = current run)
    and runs the same gate comparison as [wl bench --gate], so the report
    and the gate cannot disagree. *)

val human_ns : float -> string
(** ["812 ns"], ["1.24 µs"], ["3.10 ms"], ["2.05 s"]. *)

val sparkline : float list -> string
(** Unicode block sparkline (▁▂▃▄▅▆▇█), scaled to the series' own
    min/max. *)

val pp_terminal :
  ?window:int ->
  ?threshold_pct:float ->
  Format.formatter ->
  Wl_obs.Store.entry list ->
  unit
(** Terminal dashboard over a trajectory: per-bench trend sparkline,
    current median vs rolling baseline with verdicts, top counter
    movements vs the previous entry, and the GC-by-span summary of the
    current run.  [window]/[threshold_pct] are the gate parameters
    (defaults 5 / 10%%). *)
