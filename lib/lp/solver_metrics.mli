(** Per-call solver work counts, shared by {!Simplex} and {!Sparse}
    (and surfaced through [Problem.solve ?metrics]).

    Each [solve] call {e adds} its counts to the record it is handed, so
    one record can aggregate a whole batch.  An "iteration" is a pricing
    pass that found an improving candidate and did work — a pivot, a
    bound flip, or (sparse only) a numerical refactorize-and-retry; the
    [max_iters] budget counts exactly these.  Fields not applicable to a
    solver stay untouched (e.g. [bound_flips] for the dense simplex,
    [phase1_iterations] outside two-phase). *)

type t = {
  mutable iterations : int;  (** Budgeted work passes (see above). *)
  mutable phase1_iterations : int;
      (** Dense two-phase only: the phase-1 share of [iterations]. *)
  mutable pivots : int;  (** Basis changes. *)
  mutable bound_flips : int;  (** Sparse only: nonbasic jumps between bounds. *)
  mutable refactorizations : int;
      (** Sparse only: eta-file rebuilds (scheduled and defensive). *)
}

val create : unit -> t
(** All-zero record. *)
