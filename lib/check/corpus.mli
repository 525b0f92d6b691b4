(** The persistent regression corpus.

    A corpus directory holds shrunk reproducers: one [.wl] instance file
    per entry (plus a sibling [.wlops] op script when the failure involved
    engine ops), named [<check>.<label>.wl] — the part before the first
    dot selects the {!Oracle} to replay the entry against.

    Replaying asserts the oracle now {e passes}: every checked-in entry is
    a minimized input that once witnessed a bug, so a replay failure means
    the bug (or a new one reachable from the same input) is back.  The
    test suite replays [test/corpus/] on every [dune runtest]; [wl fuzz
    --replay DIR] does the same from the CLI, and [wl fuzz --corpus DIR]
    appends freshly shrunk reproducers. *)

type entry = {
  check : string;  (** oracle name parsed from the file name *)
  label : string;  (** the part between the check name and [.wl] *)
  wl_file : string;
  subject : Subject.t;
}

val load : string -> (entry list, string) result
(** All entries of a corpus directory, sorted by file name; [Error] on an
    unreadable directory, an unparsable entry, or an entry file not named
    [<check>.<label>.wl]. *)

val replay : entry -> string option
(** Re-run the entry's oracle on its subject: [None] when the oracle
    passes (the regression stays fixed), [Some reason] when it fails —
    including when the oracle name is unknown. *)

val add :
  dir:string -> check:string -> label:string -> Subject.t -> string list
(** Write a reproducer into the corpus; returns the paths written.
    Overwrites an existing entry of the same name (shrinking is
    deterministic, so re-adding the same failure rewrites identical
    bytes). *)
