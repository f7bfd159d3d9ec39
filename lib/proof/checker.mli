(** An independent RUP/DRAT proof-trace checker.

    Replays an {!Smt.Sat.proof_step} trace against nothing but naive
    unit propagation over occurrence lists — no watched literals, no
    learning, no code shared with the CDCL solver — and confirms that
    the trace derives a refutation:

    - [P_input] clauses are admitted on trust (the caller owns their
      provenance);
    - [P_rup] clauses must be entailed by reverse unit propagation over
      the clauses admitted so far;
    - [P_lemma] clauses are re-justified by the [theory] callback
      (typically a standalone theory-solver run, see {!Certify});
    - [P_delete] must name an alive clause (compared as a sorted
      literal set) and removes one copy.

    The checker is falsifiable by construction: a bogus RUP step, a
    deletion of an absent clause, a use of a deleted clause, or a
    mis-justified lemma each make {!run} return [Error]. *)

type goal =
  | Empty  (** the trace must derive the empty clause *)
  | Assumptions of int list
      (** the given literals, asserted on top of the final active set,
          must be refuted by propagation (or the empty clause must have
          been derived outright) *)

type summary = {
  steps : int;  (** trace steps replayed *)
  inputs : int;
  rup_checked : int;  (** derived clauses confirmed by propagation *)
  lemmas_checked : int;  (** theory lemmas re-justified *)
  deletions : int;
}

val run :
  ?theory:(int array -> (unit, string) result) ->
  goal:goal ->
  Smt.Sat.proof_step list ->
  (summary, string) result
(** Replay a trace.  [theory] re-justifies [P_lemma] steps; its default
    rejects every lemma, so purely propositional traces need not supply
    it.  [Error msg] pinpoints the first failing step. *)
