(** The linter: run every check family over a network and collect the
    sorted diagnostics.  [preflight] is the encoder's pre-flight hook:
    it raises {!Lint_errors} when Error-level findings exist, so a
    broken configuration is reported instead of encoded.

    The families split by what they can report.  {!Refs} and
    {!Consistency} emit errors as well as warnings; {!Deadcode}
    (MS-W2xx) and {!Symmetry.check} (MS-W401) emit only warnings, which
    the pre-flight would discard, so [preflight] runs only the first
    two.  On a 405-router fabric the warning-only families cost more
    than the error-capable ones. *)

module D = Diagnostic

exception Lint_errors of D.t list

let error_capable = [ Refs.check; Consistency.check ]
let warning_only = [ Deadcode.check; Symmetry.check ]
let diagnostics checks net = List.concat_map (fun check -> check net) checks |> List.sort D.compare

let run net = diagnostics (error_capable @ warning_only) net

let errors diags = List.filter D.is_error diags

(** Exit code for a CLI run: 0 clean/info, 1 warnings, 2 errors. *)
let exit_code diags =
  match D.max_severity diags with
  | Some D.Error -> 2
  | Some D.Warning -> 1
  | Some D.Info | None -> 0

let preflight net =
  match errors (diagnostics error_capable net) with
  | [] -> ()
  | errs -> raise (Lint_errors errs)

let () =
  Printexc.register_printer (function
    | Lint_errors errs ->
      Some
        (Printf.sprintf "Lint_errors:\n%s"
           (String.concat "\n" (List.map D.to_string errs)))
    | _ -> None)
