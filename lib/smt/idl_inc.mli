(** Incremental integer difference logic for DPLL(T).

    Maintains a feasible distance function for the asserted constraints
    [x - y <= k].  Assertions are pushed with the SAT trail position
    they correspond to, so {!backtrack} can pop them in sync with the
    SAT solver's backtracks.  Each assertion performs an incremental
    feasibility repair (Cotton–Maler style): cost is
    proportional to the affected region, and an infeasible assertion
    reports the negative cycle's tags without being committed.

    The assertion stack is a flat integer arena and the repair worklist
    and undo log are reused scratch buffers, so the committed-assertion
    path — which the DPLL(T) loop hits for every atom on the SAT trail,
    re-asserting after every backtrack — allocates nothing. *)

type t

val create : nvars:int -> t

val assert_constr : t -> trail_pos:int -> x:int -> y:int -> k:int -> tag:int -> int list option
(** Assert [x - y <= k], tagged with [tag] for conflict reporting.
    [None] means the constraint was committed; [Some tags] is a negative
    cycle (including this constraint's tag), and the constraint is not
    committed in that case. *)

val backtrack : t -> trail_size:int -> unit
(** Pop every constraint asserted at a trail position [>= trail_size]. *)

val model : t -> int array
(** A satisfying assignment for the current constraints. *)

val register_atom : t -> x:int -> y:int -> k:int -> var:int -> unit
(** Record that SAT variable [var] encodes the atom [x - y <= k], for
    theory propagation.  Atoms over the same [(x, y)] pair form a
    "ladder": [x - y <= k] implies [x - y <= k'] for every [k' > k].
    Idempotent. *)

val ladder_below : t -> var:int -> int
(** The SAT variable of the adjacent rung whose bound is the largest
    strictly below [var]'s on its ladder, or [-1] if none (or if [var]
    was never registered).  The binary clause [¬var_below ∨ var_above]
    between adjacent rungs is the theory lemma that lets unit
    propagation do difference-bound reasoning.  Resolved from arrays
    precomputed after registration: O(1) and allocation-free. *)

val ladder_above : t -> var:int -> int
(** Dual of {!ladder_below}: the adjacent rung whose bound is the
    smallest strictly above [var]'s, or [-1]. *)
