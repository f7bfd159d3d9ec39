(** Tseitin conversion of terms into SAT clauses.

    A context owns a {!Sat.t} solver and maintains:
    - a memo table from Boolean terms to SAT literals;
    - a registry of theory atoms (difference-logic and rational) keyed
      by their canonical normal form, so syntactically different but
      equivalent atoms share one SAT variable;
    - bit-blasting tables mapping bit-vector terms to literal arrays.

    Cardinality constraints ([Term.at_most]) are expanded with the
    sequential-counter encoding using fresh variables and full
    equivalences, so they are sound under both polarities.  And/Or
    definitions are full biconditionals as well (plain Tseitin), so a
    converted literal may be used under either polarity. *)

type t

(** A registered integer difference atom [x - y <= k]; [x], [y] are
    dense theory-variable indices, [-1] when absent. *)
type int_atom = { ix : int; iy : int; ik : int }

(** A registered rational atom [sum coeffs <= bound] ([<] if strict).
    Variable indices are dense rational theory-variable indices. *)
type rat_atom = {
  rcoeffs : (int * Exactnum.Rat.t) list;
  rbound : Exactnum.Rat.t;
  rstrict : bool;
}

val create : ?proof:bool -> unit -> t
(** [~proof:true] turns on DRAT trace recording in the underlying
    solver before the first clause is emitted (see {!Sat.enable_proof}). *)

val sat : t -> Sat.t

val assert_term : t -> Term.t -> unit
(** Convert a Boolean term to clauses and assert it. *)

val assert_implied : t -> guard:Term.t -> Term.t -> unit
(** [assert_implied c ~guard t] asserts [guard => t], pushing the
    negated guard literal into each top-level clause of [t]'s
    conversion.  With [guard] a fresh activation variable this makes
    the assertion retractable: assuming [guard] enables it, a unit
    clause [not guard] retires it for good. *)

val lit_of : t -> Term.t -> int
(** SAT literal of a Boolean term (converting it if needed). *)

val num_int_vars : t -> int
val num_rat_vars : t -> int

val int_atoms : t -> (int * int_atom) list
(** [(sat_var, atom)] pairs for every registered difference atom. *)

val rat_atoms : t -> (int * rat_atom) list

val int_var_terms : t -> (Term.t * int) list
(** Integer term variables and their dense theory indices. *)

val rat_var_terms : t -> (Term.t * int) list

val bool_var_lits : t -> (Term.t * int) list
(** Boolean term variables and their SAT literals. *)

val bv_var_bits : t -> (Term.t * int array) list
(** Bit-vector term variables and their SAT literal arrays
    (index 0 = least significant bit). *)
