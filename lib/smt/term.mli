(** Hash-consed SMT terms.

    Terms are maximally shared among live terms: structurally equal
    terms that are both reachable are physically equal, so [t1 == t2]
    iff they denote the same term.  Each term has an [id] that is unique
    for the lifetime of the process and never reused, so it is usable as
    a key even in tables that outlive the term.

    The hash-consing table holds its terms weakly: a term that nothing
    references is reclaimed by the GC, and building it again later
    yields a fresh term with a fresh id.  Whoever needs a term to keep
    its id (a solver's Tseitin memo, say) must hold the term itself.

    Smart constructors perform light simplification (constant folding,
    flattening, double-negation elimination).  They also enforce sorts
    and raise [Invalid_argument] on ill-sorted applications.

    Integer arithmetic is restricted to the *difference-logic* fragment
    downstream (see {!Cnf}): integer atoms must normalize to
    [x - y <= k], [x <= k] or [-x <= k].  Real (rational) arithmetic is
    full linear arithmetic. *)

type t = private { id : int; node : node; sort : Sort.t }

and node =
  | True
  | False
  | Var of string
  | Not of t
  | And of t list
  | Or of t list
  | Implies of t * t
  | Iff of t * t
  | Ite of t * t * t  (** Boolean branches only *)
  | At_most of int * t list  (** cardinality: at most [k] of the terms hold *)
  | Int_const of int
  | Rat_const of Exactnum.Rat.t
  | Add of t * t
  | Sub of t * t
  | Scale of Exactnum.Rat.t * t
  | Leq of t * t
  | Lt of t * t
  | Eq of t * t  (** operands of any identical non-Bool sort; Bool uses Iff *)
  | Bv_const of int  (** value; width given by the term's sort *)
  | Bv_and of t * t
  | Bv_ule of t * t  (** unsigned bit-vector comparison; sort Bool *)

val sort : t -> Sort.t
val id : t -> int
val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int

(** {1 Constructors} *)

val tru : t
val fls : t
val bool_const : bool -> t

val var : string -> Sort.t -> t
(** [var name sort] returns the variable [name].  The same name denotes
    the same variable for as long as that variable is live;
    re-declaring a live variable at a different sort raises
    [Invalid_argument].  A variable no term references is gone, so its
    name may be declared afresh at any sort. *)

val fresh_var : ?prefix:string -> Sort.t -> t
(** A variable with a globally unique generated name. *)

val not_ : t -> t
val and_ : t list -> t
val or_ : t list -> t
val implies : t -> t -> t
val iff : t -> t -> t
val ite : t -> t -> t -> t
val xor : t -> t -> t

val at_most : int -> t list -> t
val at_least : int -> t list -> t
val exactly : int -> t list -> t

val int_const : int -> t
val rat_const : Exactnum.Rat.t -> t
val add : t -> t -> t
val sub : t -> t -> t
val scale : Exactnum.Rat.t -> t -> t
(** [scale q t] is [q * t].
    @raise Invalid_argument when [t] is Int-sorted and [q] is not an
    integer, or [t] is not arithmetic. *)

val leq : t -> t -> t
val lt : t -> t -> t
val geq : t -> t -> t
val gt : t -> t -> t

val eq : t -> t -> t
(** Polymorphic equality; Boolean operands become {!iff}. *)

val neq : t -> t -> t

val bv_const : width:int -> int -> t
val bv_var : string -> width:int -> t
val bv_and : t -> t -> t
val bv_ule : t -> t -> t
val bv_eq : t -> t -> t

val pp : Format.formatter -> t -> unit
val to_string : t -> string

val size : t -> int
(** Number of distinct subterms (DAG size). *)

val live_count : unit -> int
(** Number of terms in the hash-consing table: the live terms, plus
    unreachable ones the GC has not yet reclaimed. *)
