(** The linter: every check family ({!Refs}, {!Deadcode},
    {!Consistency}, {!Symmetry}) run over a network, diagnostics
    collected and sorted.  The pre-flight runs only the families that
    can emit an Error ({!Refs}, {!Consistency}). *)

exception Lint_errors of Diagnostic.t list
(** Raised by {!preflight} when Error-level findings exist.  A printer
    is registered, so an uncaught escape still renders the findings. *)

val error_capable : (Config.Ast.network -> Diagnostic.t list) list
(** The families that can emit Error-level findings: {!Refs.check} and
    {!Consistency.check}.  {!preflight} runs only these. *)

val warning_only : (Config.Ast.network -> Diagnostic.t list) list
(** The families that emit only warnings: {!Deadcode.check} (MS-W2xx)
    and {!Symmetry.check} (MS-W401). *)

val run : Config.Ast.network -> Diagnostic.t list
(** All diagnostics from every check family, sorted by
    {!Diagnostic.compare}. *)

val errors : Diagnostic.t list -> Diagnostic.t list
(** The Error-severity subset. *)

val exit_code : Diagnostic.t list -> int
(** Exit code for a CLI lint run: [0] clean or info-only, [1] warnings,
    [2] errors. *)

val preflight : Config.Ast.network -> unit
(** The encoder's pre-flight hook: no-op on a clean network.  Runs
    only {!error_capable}, so it raises exactly when
    [errors (run net) <> []], with that list.
    @raise Lint_errors when Error-level findings exist, so a broken
    configuration is reported instead of encoded. *)
