module T = Smt.Term
module Solver = Smt.Solver

type outcome = Holds | Violation of Counterexample.t

let solve_assertions enc (prop : Property.t) =
  let opts = Encode.options enc in
  let solver =
    Solver.create ~certify:opts.Options.certify ~strategy:opts.Options.strategy ()
  in
  List.iter (Solver.assert_term solver) (Encode.assertions enc);
  List.iter (Solver.assert_term solver) prop.Property.instrumentation;
  List.iter (Solver.assert_term solver) prop.Property.assumptions;
  Solver.assert_term solver (T.not_ prop.Property.goal);
  solver

(* -- the unified query/report surface -------------------------------------- *)

module Query = struct
  type t = {
    label : string;
    timeout : float option;  (* wall-clock seconds for this query alone *)
    prop : Encode.t -> Property.t;
  }

  let v ?timeout label prop = { label; timeout; prop }
  let of_property ?timeout label p = { label; timeout; prop = (fun _ -> p) }
  let with_default_timeout timeout q =
    match (q.timeout, timeout) with None, Some _ -> { q with timeout } | _ -> q
end

module Report = struct
  type verdict =
    | Verified
    | Violated of Counterexample.t
    | Timeout
    | Error of string

  (* Independent evidence for a verdict, produced when the encoding was
     built with [Options.certify].  [Checked_unsat_proof]: the solver's
     DRAT-style trace replayed through the standalone {!Proof.Checker}
     (theory lemmas re-justified by fresh Idl/Simplex runs) and found to
     derive the refutation.  [Checked_model]: the satisfying assignment
     re-evaluated over the original terms and the decoded counterexample
     replayed through the concrete routing simulator. *)
  type certificate =
    | Uncertified
    | Checked_unsat_proof of { trace_steps : int; clauses : int; lemmas : int }
    | Checked_model
    | Certification_failed of string

  (* Which path produced a fault-invariance verdict: [Graph] the
     lib/faults min-cut fast path over the simulator's converged
     routes, [Smt] the full two-copy encoding, [Fallback] the SMT
     encoding reached because the graph path declined to decide.
     [None] on queries outside the fault workload. *)
  type meth = Graph | Smt | Fallback

  type t = {
    label : string;
    verdict : verdict;
    certificate : certificate;
    wall_ms : float;
    stats : Solver.stats;
        (* per-query solver work: absolute for a fresh solver, the
           delta over the enclosing session otherwise *)
    support : string list option;
        (* Verified verdicts from a support-tracking session: the
           devices whose assumption guards appear in the final-conflict
           core.  The refutation used only their configuration slices
           (plus shared structure), so the verdict survives any edit
           disjoint from this set. *)
    replayed : bool;
        (* the verdict was replayed from a cache (core-disjoint delta
           re-verification), not produced by a solver run *)
    method_ : meth option;
        (* which fault-workload path answered *)
  }

  (* The JSON schema version stamped on every report, bench file and
     serve-protocol message.  Bump on any breaking change to the JSON
     surface. *)
  let schema_version = 2

  let verdict_name = function
    | Verified -> "verified"
    | Violated _ -> "violated"
    | Timeout -> "timeout"
    | Error _ -> "error"

  let certificate_name = function
    | Uncertified -> "uncertified"
    | Checked_unsat_proof _ -> "checked_unsat_proof"
    | Checked_model -> "checked_model"
    | Certification_failed _ -> "certification_failed"

  let method_name = function Graph -> "graph" | Smt -> "smt" | Fallback -> "fallback"

  let of_outcome = function Holds -> Verified | Violation cx -> Violated cx

  let to_outcome r =
    match r.verdict with
    | Verified -> Holds
    | Violated cx -> Violation cx
    | Timeout -> invalid_arg (r.label ^ ": query timed out; no outcome")
    | Error e -> invalid_arg (r.label ^ ": query errored (" ^ e ^ "); no outcome")

  let empty_stats =
    {
      Solver.sat_vars = 0;
      sat_clauses = 0;
      conflicts = 0;
      decisions = 0;
      propagations = 0;
      restarts = 0;
      ema_restarts = 0;
      blocked_restarts = 0;
      rephases = 0;
      learned_clauses = 0;
      theory_rounds = 0;
      chrono_backtracks = 0;
      theory_propagations = 0;
      preprocessed_clauses = 0;
      lbd_reductions = 0;
      checks = 0;
      arena_words = 0;
      arena_compactions = 0;
      minor_words = 0.0;
    }

  let v label verdict =
    {
      label;
      verdict;
      certificate = Uncertified;
      wall_ms = 0.0;
      stats = empty_stats;
      support = None;
      replayed = false;
      method_ = None;
    }

  (* Decisions per conflict: how much of the search is blind walking
     over don't-care variables versus conflict-driven progress (lower
     is tighter). *)
  let decisions_per_conflict (st : Solver.stats) =
    if st.Solver.conflicts = 0 then 0.0
    else float_of_int st.Solver.decisions /. float_of_int st.Solver.conflicts

  (* One JSON object per report — the single renderer behind both the
     CLI's --format json and the bench harness. *)
  let to_json r =
    let buf = Buffer.create 256 in
    Buffer.add_string buf
      (Printf.sprintf
         "{\"schema\":%d,\"label\":\"%s\",\"verdict\":\"%s\",\"wall_ms\":%.2f"
         schema_version (Msutil.Json.escape r.label) (verdict_name r.verdict) r.wall_ms);
    if r.replayed then Buffer.add_string buf ",\"replayed\":true";
    (match r.method_ with
     | Some m -> Buffer.add_string buf (Printf.sprintf ",\"method\":\"%s\"" (method_name m))
     | None -> ());
    (match r.support with
     | Some devs ->
       Buffer.add_string buf
         (Printf.sprintf ",\"support\":[%s]"
            (String.concat "," (List.map (fun d -> "\"" ^ Msutil.Json.escape d ^ "\"") devs)))
     | None -> ());
    (match r.verdict with
     | Error e -> Buffer.add_string buf (Printf.sprintf ",\"error\":\"%s\"" (Msutil.Json.escape e))
     | Violated cx ->
       Buffer.add_string buf
         (Printf.sprintf
            ",\"counterexample\":{\"dst_ip\":\"%s\",\"src_ip\":\"%s\",\"dst_port\":%d,\"failed_links\":[%s],\"announcements\":%d,\"forwarding_edges\":%d}"
            (Net.Ipv4.to_string cx.Counterexample.dst_ip)
            (Net.Ipv4.to_string cx.Counterexample.src_ip)
            cx.Counterexample.dst_port
            (String.concat ","
               (List.map
                  (fun (a, b) ->
                    Printf.sprintf "[\"%s\",\"%s\"]" (Msutil.Json.escape a) (Msutil.Json.escape b))
                  cx.Counterexample.failures))
            (List.length cx.Counterexample.announcements)
            (List.length cx.Counterexample.forwarding));
       if cx.Counterexample.classes <> [] then
         Buffer.add_string buf
           (Printf.sprintf ",\"symmetry_classes\":[%s]"
              (String.concat ","
                 (List.map
                    (fun (rep, members) ->
                      Printf.sprintf "{\"representative\":\"%s\",\"members\":%d}"
                        (Msutil.Json.escape rep) (List.length members))
                    cx.Counterexample.classes)))
     | Verified | Timeout -> ());
    (match r.certificate with
     | Uncertified -> ()
     | Checked_unsat_proof { trace_steps; clauses; lemmas } ->
       Buffer.add_string buf
         (Printf.sprintf
            ",\"certificate\":{\"status\":\"checked_unsat_proof\",\"trace_steps\":%d,\"clauses\":%d,\"lemmas\":%d}"
            trace_steps clauses lemmas)
     | Checked_model ->
       Buffer.add_string buf ",\"certificate\":{\"status\":\"checked_model\"}"
     | Certification_failed msg ->
       Buffer.add_string buf
         (Printf.sprintf ",\"certificate\":{\"status\":\"failed\",\"reason\":\"%s\"}"
            (Msutil.Json.escape msg)));
    Buffer.add_string buf
      (Printf.sprintf
         ",\"stats\":{\"conflicts\":%d,\"decisions\":%d,\"propagations\":%d,\"learned_clauses\":%d,\"restarts\":%d,\"ema_restarts\":%d,\"blocked_restarts\":%d,\"rephases\":%d,\"theory_propagations\":%d,\"theory_conflicts\":%d,\"chrono_backtracks\":%d,\"preprocessed_clauses\":%d,\"lbd_reductions\":%d,\"decisions_per_conflict\":%.2f,\"arena_bytes\":%d,\"arena_compactions\":%d,\"minor_words\":%.0f}}"
         r.stats.Solver.conflicts r.stats.Solver.decisions r.stats.Solver.propagations
         r.stats.Solver.learned_clauses r.stats.Solver.restarts
         r.stats.Solver.ema_restarts r.stats.Solver.blocked_restarts
         r.stats.Solver.rephases
         r.stats.Solver.theory_propagations r.stats.Solver.theory_rounds
         r.stats.Solver.chrono_backtracks r.stats.Solver.preprocessed_clauses
         r.stats.Solver.lbd_reductions
         (decisions_per_conflict r.stats)
         (r.stats.Solver.arena_words * (Sys.word_size / 8))
         r.stats.Solver.arena_compactions r.stats.Solver.minor_words);
    Buffer.contents buf

  let list_to_json rs =
    "[\n    " ^ String.concat ",\n    " (List.map to_json rs) ^ "\n  ]"

  (* Uniform process exit codes (single query or batch):
     0 every query holds, 1 any violation, 3 any timeout or query
     error, 4 any certification failure (2 is reserved for usage/parse
     errors, signalled before any query runs).  A violation dominates a
     timeout: it is the stronger, actionable answer.  A certification
     failure dominates everything — a verdict whose independent check
     failed cannot be trusted in either direction. *)
  let exit_code rs =
    if
      List.exists
        (fun r -> match r.certificate with Certification_failed _ -> true | _ -> false)
        rs
    then 4
    else if List.exists (fun r -> match r.verdict with Violated _ -> true | _ -> false) rs
    then 1
    else if
      List.exists (fun r -> match r.verdict with Timeout | Error _ -> true | _ -> false) rs
    then 3
    else 0
end

let now () = Unix.gettimeofday ()

let set_deadline solver = function
  | None -> Solver.set_stop solver None
  | Some secs ->
    let deadline = now () +. secs in
    (* >= so a zero budget cancels deterministically at the first poll *)
    Solver.set_stop solver (Some (fun () -> now () >= deadline))

(* -- certification ---------------------------------------------------------- *)

let certify_unsat solver : Report.certificate =
  match Proof.Certify.unsat solver with
  | Ok (s : Proof.Certify.unsat_summary) ->
    Report.Checked_unsat_proof
      { trace_steps = s.trace_steps; clauses = s.clauses; lemmas = s.lemmas }
  | Error msg -> Report.Certification_failed msg

let certify_model enc solver model : Report.certificate =
  match Proof.Certify.model solver model with
  | Error msg -> Report.Certification_failed msg
  | Ok () -> (
    match Counterexample.replay enc (Counterexample.decode enc model) with
    | Ok () -> Report.Checked_model
    | Error msg -> Report.Certification_failed msg)

(* Answer one query on a fresh single-shot solver. *)
let run_query enc (q : Query.t) : Report.t =
  let certify = (Encode.options enc).Options.certify in
  let t0 = now () in
  let finish verdict certificate stats =
    { (Report.v q.Query.label verdict) with
      Report.certificate; wall_ms = (now () -. t0) *. 1000.0; stats }
  in
  let solver = solve_assertions enc (q.Query.prop enc) in
  set_deadline solver q.Query.timeout;
  match Solver.check solver with
  | Solver.Unsat ->
    let cert = if certify then certify_unsat solver else Report.Uncertified in
    finish Report.Verified cert (Solver.stats solver)
  | Solver.Sat model ->
    let cert = if certify then certify_model enc solver model else Report.Uncertified in
    finish (Report.Violated (Counterexample.decode enc model)) cert (Solver.stats solver)
  | exception Solver.Canceled -> finish Report.Timeout Report.Uncertified (Solver.stats solver)

(* -- incremental verification sessions ------------------------------------- *)

module Session = struct
  (* What every view of one solver shares (see [rebase]).  The
     activation-literal counter and the live activation literal must be
     shared: a view with its own counter would mint a [session!N.act]
     another view already retired with a root unit [not act], and every
     query guarded by it would come back Unsat. *)
  type shared = {
    solver : Solver.t;
    owner : int;  (* pid of the creating process; see [guard_owner] *)
    support : bool;
    mutable next : int;
    mutable active : T.t option;  (* activation literal of the live query *)
    unscoped : T.t list;  (* the encoding's unguarded assertions, as asserted *)
    slices : (string, (T.t list * T.t) list) Hashtbl.t;
        (* support tracking: device -> every slice asserted for it so
           far, with the guard it was asserted under *)
    mutable guards_made : int;
    mutable fresh_vars : int;  (* SAT variables once the first encoding was asserted *)
  }

  type session = {
    enc : Encode.t;
    sh : shared;
    guards : (string * T.t) list;
        (* support tracking: this view's per-device assumption guards,
           one per device of [enc]; [] when tracking is off *)
    mutable last_model : Smt.Model.t option;  (* model of the last Sat check *)
    mutable last_support : string list option;
        (* device guards in the final-conflict core of the last Unsat
           check; [None] after Sat checks or without support tracking *)
  }

  type t = session

  (* The encoding's assertions split into the unscoped ones and one
     slice per device, each in emission order. *)
  let split enc =
    let by_dev = Hashtbl.create 64 and unscoped = ref [] in
    List.iter
      (fun (scope, term) ->
        match scope with
        | None -> unscoped := term :: !unscoped
        | Some d ->
          Hashtbl.replace by_dev d
            (term :: Option.value ~default:[] (Hashtbl.find_opt by_dev d)))
      (Encode.tagged_assertions enc);
    ( List.rev !unscoped,
      List.map
        (fun d -> (d, List.rev (Option.value ~default:[] (Hashtbl.find_opt by_dev d))))
        (Encode.devices enc) )

  let guard_var n d = T.var (Printf.sprintf "dev!%d.%s" n d) Smt.Sort.Bool

  (* A session is a single-process object: the solver's assumption
     stack, activation-literal counter and proof trace all live in this
     process's heap.  Using one from a child after a fork silently
     diverges the parent's and child's views of the activation literals
     and corrupts later verdicts, so fail fast instead. *)
  let guard_owner s =
    if Unix.getpid () <> s.sh.owner then
      invalid_arg
        "Verify.Session: session used from a forked process; create one session per process"

  (* The guard of device [d]'s slice [terms]: the one it was asserted
     under if the solver already holds exactly these terms for [d], else
     a fresh one, under which the slice is asserted now. *)
  let guard_slice sh (d, terms) =
    let known = Option.value ~default:[] (Hashtbl.find_opt sh.slices d) in
    match List.find_opt (fun (ts, _) -> List.equal ( == ) ts terms) known with
    | Some (_, g) -> (d, g)
    | None ->
      sh.guards_made <- sh.guards_made + 1;
      let g = guard_var sh.guards_made d in
      List.iter (Solver.assert_implied sh.solver ~guard:g) terms;
      Hashtbl.replace sh.slices d ((terms, g) :: known);
      (d, g)

  let of_encoding ?(support = false) enc =
    let opts = Encode.options enc in
    let solver =
      Solver.create ~incremental:true ~certify:opts.Options.certify
        ~strategy:opts.Options.strategy ()
    in
    let unscoped, slices = if support then split enc else (Encode.assertions enc, []) in
    List.iter (Solver.assert_term solver) unscoped;
    let sh =
      {
        solver;
        owner = Unix.getpid ();
        support;
        next = 0;
        active = None;
        unscoped;
        slices = Hashtbl.create 64;
        guards_made = 0;
        fresh_vars = 0;
      }
    in
    (* Guard each device's slice behind an assumption literal.  Every
       check passes all the guards, so verdicts are those of the plain
       session; on Unsat the final-conflict core over the assumptions
       names the devices whose slices the refutation used — the
       verdict's support. *)
    let guards = List.map (guard_slice sh) slices in
    sh.fresh_vars <- (Solver.stats solver).Solver.sat_vars;
    { enc; sh; guards; last_model = None; last_support = None }

  (* A view of [s]'s solver for [enc]: slices already asserted keep
     their guards, the others are asserted under fresh ones.  Sound
     because a view assumes only its own guards — every other slice is
     satisfied by setting its guard false — and the unsat core, hence
     [support], can only name assumed guards.  Nothing asserted is ever
     taken out, so once the solver carries more than twice the SAT
     variables it started with, it has aged out and [rebase] refuses. *)
  let rebase s enc =
    guard_owner s;
    let sh = s.sh in
    if (not sh.support) || (Solver.stats sh.solver).Solver.sat_vars > 2 * sh.fresh_vars then None
    else
      let unscoped, slices = split enc in
      if not (List.equal ( == ) unscoped sh.unscoped) then None
      else
        Some
          {
            enc;
            sh;
            guards = List.map (guard_slice sh) slices;
            last_model = None;
            last_support = None;
          }

  let create ?support net opts = of_encoding ?support (Encode.build net opts)
  let encoding s = s.enc
  let queries s = s.sh.next
  let stats s = Solver.stats s.sh.solver
  let last_support s = s.last_support
  let live_guards s = s.sh.guards_made

  let check s prop =
    guard_owner s;
    let sh = s.sh in
    (* Retire the previous query for good: the unit clause satisfies
       all of its guarded clauses, so clause-database reduction can
       drop any learnt clause that still mentions it. *)
    (match sh.active with
     | Some act -> Solver.assert_term sh.solver (T.not_ act)
     | None -> ());
    let act = T.var (Printf.sprintf "session!%d.act" sh.next) Smt.Sort.Bool in
    sh.next <- sh.next + 1;
    sh.active <- Some act;
    List.iter
      (Solver.assert_implied sh.solver ~guard:act)
      (prop.Property.instrumentation @ prop.Property.assumptions);
    Solver.assert_implied sh.solver ~guard:act (T.not_ prop.Property.goal);
    match Solver.check ~assumptions:(act :: List.map snd s.guards) sh.solver with
    | Solver.Unsat ->
      s.last_model <- None;
      (if s.guards = [] then s.last_support <- None
       else begin
         let core = Solver.unsat_core sh.solver in
         s.last_support <-
           Some
             (List.filter_map
                (fun (d, g) -> if List.exists (T.equal g) core then Some d else None)
                s.guards)
       end);
      Holds
    | Solver.Sat model ->
      s.last_model <- Some model;
      s.last_support <- None;
      Violation (Counterexample.decode s.enc model)

  (* Per-query solver work: session counters accumulate forever, so a
     query's cost is the delta across its check. *)
  let stats_delta (a : Solver.stats) (b : Solver.stats) =
    {
      Solver.sat_vars = b.Solver.sat_vars;
      sat_clauses = b.Solver.sat_clauses;
      conflicts = b.Solver.conflicts - a.Solver.conflicts;
      decisions = b.Solver.decisions - a.Solver.decisions;
      propagations = b.Solver.propagations - a.Solver.propagations;
      restarts = b.Solver.restarts - a.Solver.restarts;
      ema_restarts = b.Solver.ema_restarts - a.Solver.ema_restarts;
      blocked_restarts = b.Solver.blocked_restarts - a.Solver.blocked_restarts;
      rephases = b.Solver.rephases - a.Solver.rephases;
      learned_clauses = b.Solver.learned_clauses - a.Solver.learned_clauses;
      theory_rounds = b.Solver.theory_rounds - a.Solver.theory_rounds;
      chrono_backtracks = b.Solver.chrono_backtracks - a.Solver.chrono_backtracks;
      theory_propagations = b.Solver.theory_propagations - a.Solver.theory_propagations;
      preprocessed_clauses = b.Solver.preprocessed_clauses - a.Solver.preprocessed_clauses;
      lbd_reductions = b.Solver.lbd_reductions - a.Solver.lbd_reductions;
      checks = b.Solver.checks - a.Solver.checks;
      (* arena occupancy and compactions describe the shared session
         solver, not one query: report the current footprint and the
         per-query compaction/allocation deltas *)
      arena_words = b.Solver.arena_words;
      arena_compactions = b.Solver.arena_compactions - a.Solver.arena_compactions;
      minor_words = b.Solver.minor_words -. a.Solver.minor_words;
    }

  let run_one s (q : Query.t) : Report.t =
    let certify = (Encode.options s.enc).Options.certify in
    let t0 = now () in
    let solver = s.sh.solver in
    let before = Solver.stats solver in
    set_deadline solver q.Query.timeout;
    let verdict =
      match check s (q.Query.prop s.enc) with
      | o -> Report.of_outcome o
      | exception Solver.Canceled -> Report.Timeout
    in
    Solver.set_stop solver None;
    let certificate =
      if not certify then Report.Uncertified
      else
        match (verdict, s.last_model) with
        | Report.Verified, _ ->
          (* the trace spans every check of the session so far; the
             checker refutes this check's activation literal on top of
             the accumulated active set *)
          certify_unsat solver
        | Report.Violated _, Some model -> certify_model s.enc solver model
        | Report.Violated _, None ->
          Report.Certification_failed "no model stashed for a Violated verdict"
        | (Report.Timeout | Report.Error _), _ -> Report.Uncertified
    in
    { (Report.v q.Query.label verdict) with
      Report.certificate;
      wall_ms = (now () -. t0) *. 1000.0;
      stats = stats_delta before (Solver.stats solver);
      support = (match verdict with Report.Verified -> s.last_support | _ -> None) }

  let run s queries = List.map (run_one s) queries
end

let record_eq (a : Sym_record.t) (b : Sym_record.t) =
  T.and_
    [
      T.iff a.Sym_record.valid b.Sym_record.valid;
      T.implies a.Sym_record.valid (Sym_record.equal_fields a b);
    ]

(* Equate the symbolic packets of two encodings built with the same
   options (hence the same field sorts). *)
let packets_equal enc1 enc2 =
  let p1 = Encode.packet enc1 and p2 = Encode.packet enc2 in
  [
    T.eq p1.Packet.dst_ip p2.Packet.dst_ip;
    T.eq p1.Packet.src_ip p2.Packet.src_ip;
    T.eq p1.Packet.dst_port p2.Packet.dst_port;
    T.eq p1.Packet.src_port p2.Packet.src_port;
    T.eq p1.Packet.protocol p2.Packet.protocol;
  ]

(* Pointwise-equal environments: external announcements matched by
   (device, peer) name across the two encodings. *)
let envs_equal enc1 enc2 =
  List.concat_map
    (fun d ->
      List.filter_map
        (fun (p, _) ->
          match List.assoc_opt p (Encode.external_peers enc2 d) with
          | Some _ -> Some (record_eq (Encode.env_record enc1 d p) (Encode.env_record enc2 d p))
          | None -> None)
        (Encode.external_peers enc1 d))
    (Encode.devices enc1)

let two_copy_check ?timeout ~label enc1 enc2 ~extra_assumptions ~goal =
  let prop =
    {
      Property.instrumentation = Encode.assertions enc2;
      assumptions = packets_equal enc1 enc2 @ envs_equal enc1 enc2 @ extra_assumptions;
      goal;
    }
  in
  run_query enc1 (Query.of_property ?timeout label prop)

let equivalent ?timeout net1 net2 opts =
  (* two-copy checks compare devices by name across both encodings, so
     each copy must contain every device: symmetry quotients (which may
     collapse the two networks differently) are forced off *)
  let opts = { opts with Options.symmetry = false } in
  let enc1 = Encode.build ~suffix:"@1" net1 opts in
  let enc2 = Encode.build ~suffix:"@2" net2 opts in
  let fwd_equal =
    List.concat_map
      (fun d ->
        List.map
          (fun h -> T.iff (Encode.datafwd enc1 d h) (Encode.datafwd enc2 d h))
          (Encode.hops enc1 d))
      (Encode.devices enc1)
  in
  let exports_equal =
    List.concat_map
      (fun d ->
        List.filter_map
          (fun (p, _) ->
            match List.assoc_opt p (Encode.external_peers enc2 d) with
            | Some _ ->
              Some (record_eq (Encode.export_to_external enc1 d p) (Encode.export_to_external enc2 d p))
            | None -> None)
          (Encode.external_peers enc1 d))
      (Encode.devices enc1)
  in
  two_copy_check ?timeout ~label:"equivalent" enc1 enc2 ~extra_assumptions:[]
    ~goal:(T.and_ (fwd_equal @ exports_equal))

let fault_invariant ?timeout ?label net opts ~k ~sources dest =
  let label =
    match label with Some l -> l | None -> Printf.sprintf "fault-invariant k=%d" k
  in
  (* same two-copy argument as [equivalent]; the failure copy would bail
     out anyway ([max_failures] disables the reduction) but the healthy
     copy must match it device-for-device *)
  let opts = { opts with Options.symmetry = false } in
  let enc1 = Encode.build ~suffix:"@ok" net { opts with Options.max_failures = None } in
  let enc2 =
    Encode.build ~suffix:"@fail" net
      { opts with Options.max_failures = Some k; fail_internal_only = true }
  in
  let reach1, defs1 = Property.reach_terms enc1 dest in
  let reach2, defs2 = Property.reach_terms enc2 dest in
  let goal = T.and_ (List.map (fun s -> T.iff (reach1 s) (reach2 s)) sources) in
  let prop =
    {
      Property.instrumentation = Encode.assertions enc2 @ defs1 @ defs2;
      assumptions =
        packets_equal enc1 enc2 @ envs_equal enc1 enc2
        @ (Property.reachability enc1 ~sources dest).Property.assumptions;
      goal;
    }
  in
  let r = run_query enc1 (Query.of_property ?timeout label prop) in
  { r with Report.method_ = Some Report.Smt }

(* -- the versioned serve protocol ------------------------------------------- *)

module Protocol = struct
  module J = Msutil.Json

  let schema = Report.schema_version

  type query_spec = {
    property : string;
    label : string option;
    sources : string list;
    dst_device : string option;
    dst_prefix : string option;
    bound : int;
    devices : string list;
    allowed : string list;
    max_len : int;
    timeout : float option;
  }

  let default_spec =
    {
      property = "reachability";
      label = None;
      sources = [];
      dst_device = None;
      dst_prefix = None;
      bound = 4;
      devices = [];
      allowed = [];
      max_len = 24;
      timeout = None;
    }

  type request =
    | Load of string
    | Diff of string
    | Query of { specs : query_spec list }
    | Stats
    | Shutdown

  let spec_of_json v : (query_spec, string) result =
    match J.member "property" v with
    | None -> Error "query spec is missing \"property\""
    | Some p -> (
      match J.get_string p with
      | None -> Error "\"property\" must be a string"
      | Some property ->
        let str k = Option.bind (J.member k v) J.get_string in
        let strs k d = Option.value ~default:d (Option.bind (J.member k v) J.string_list) in
        let int_ k d = Option.value ~default:d (Option.bind (J.member k v) J.get_int) in
        Ok
          {
            property;
            label = str "label";
            sources = strs "sources" [];
            dst_device = str "dst_device";
            dst_prefix = str "dst_prefix";
            bound = int_ "bound" default_spec.bound;
            devices = strs "devices" [];
            allowed = strs "allowed" [];
            max_len = int_ "max_len" default_spec.max_len;
            timeout = Option.bind (J.member "timeout" v) J.get_float;
          })

  let request_of_json v : (request, string) result =
    match v with
    | J.Obj _ -> (
      (match J.member "schema" v with
       | Some s when J.get_int s <> Some schema ->
         Error (Printf.sprintf "unsupported schema (this daemon speaks schema %d)" schema)
       | Some _ | None -> Ok ())
      |> function
      | Error e -> Error e
      | Ok () -> (
        match Option.bind (J.member "op" v) J.get_string with
        | None -> Error "request is missing \"op\""
        | Some "load" -> (
          match Option.bind (J.member "config" v) J.get_string with
          | Some c -> Ok (Load c)
          | None -> Error "\"load\" needs a \"config\" string")
        | Some "diff" -> (
          match Option.bind (J.member "config" v) J.get_string with
          | Some c -> Ok (Diff c)
          | None -> Error "\"diff\" needs a \"config\" string")
        | Some "query" -> (
          match Option.bind (J.member "queries" v) J.get_list with
          | None -> Error "\"query\" needs a \"queries\" array"
          | Some [] -> Error "\"queries\" must not be empty"
          | Some vs ->
            List.fold_right
              (fun v acc ->
                match (spec_of_json v, acc) with
                | Ok s, Ok tl -> Ok (s :: tl)
                | (Error _ as e), _ -> e
                | _, (Error _ as e) -> e)
              vs (Ok [])
            |> Result.map (fun specs -> Query { specs }))
        | Some "stats" -> Ok Stats
        | Some "shutdown" -> Ok Shutdown
        | Some other -> Error ("unknown op " ^ other)))
    | _ -> Error "request must be a JSON object"

  let parse_request line =
    match J.parse line with
    | Error e -> Error ("malformed JSON: " ^ e)
    | Ok v -> request_of_json v

  (* The verdict-cache key of a query spec: everything that can change
     the verdict, nothing that cannot (label, timeout). *)
  let spec_key s =
    String.concat "|"
      ([ s.property ]
      @ List.sort compare s.sources
      @ [ Option.value ~default:"-" s.dst_device; Option.value ~default:"-" s.dst_prefix ]
      @ [ string_of_int s.bound ]
      @ s.devices
      @ List.sort compare s.allowed
      @ [ string_of_int s.max_len ])

  (* A spec expands to one or more labelled queries over the shared
     encoding, mirroring the CLI's property vocabulary; [all-pairs]
     fans out per destination device. *)
  let queries_of_spec enc (s : query_spec) : (Query.t list, string) result =
    let all_devices = Encode.devices enc in
    let sources = match s.sources with [] -> all_devices | srcs -> srcs in
    let label default = match s.label with Some l -> l | None -> default in
    let dest () =
      match (s.dst_device, s.dst_prefix) with
      | Some d, Some p -> (
        match Net.Prefix.of_string p with
        | p -> Ok (Property.Subnet (d, p))
        | exception _ -> Error ("malformed dst_prefix " ^ p))
      | Some d, None -> Ok (Property.Device d)
      | None, _ -> Error ("property " ^ s.property ^ " needs a dst_device")
    in
    let pair () =
      match s.devices with
      | [ d1; d2 ] -> Ok (d1, d2)
      | _ -> Error ("property " ^ s.property ^ " needs \"devices\" naming exactly two devices")
    in
    let one name make = Ok [ Query.v ?timeout:s.timeout (label name) make ] in
    let with_dest name make = Result.bind (dest ()) (fun d -> one name (make d)) in
    let with_pair name make = Result.bind (pair ()) (fun p -> one name (make p)) in
    match s.property with
    | "reachability" ->
      with_dest "reachability" (fun d enc -> Property.reachability enc ~sources d)
    | "isolation" -> with_dest "isolation" (fun d enc -> Property.isolation enc ~sources d)
    | "bounded-length" ->
      with_dest "bounded-length" (fun d enc ->
          Property.bounded_length enc ~sources d ~bound:s.bound)
    | "blackholes" ->
      one "blackholes" (fun enc -> Property.no_blackholes enc ~allowed:s.allowed ())
    | "loops" -> one "loops" (fun enc -> Property.no_loops enc ())
    | "multipath-consistency" ->
      with_dest "multipath-consistency" (fun d enc -> Property.multipath_consistency enc d)
    | "acl-equivalence" ->
      with_pair "acl-equivalence" (fun (d1, d2) enc -> Property.acl_equivalence enc d1 d2)
    | "local-equivalence" ->
      with_pair "local-equivalence" (fun (d1, d2) enc -> Property.local_equivalence enc d1 d2)
    | "no-leak" -> one "no-leak" (fun enc -> Property.no_leak enc ~max_len:s.max_len)
    | "all-pairs" ->
      Ok
        (List.filter_map
           (fun d ->
             if Encode.subnets enc d = [] then None
             else begin
               let srcs = List.filter (fun x -> x <> d) all_devices in
               Some
                 (Query.v ?timeout:s.timeout
                    (label ("reachability *->" ^ d))
                    (fun enc -> Property.reachability enc ~sources:srcs (Property.Device d)))
             end)
           all_devices)
    | other -> Error ("unknown property " ^ other)
end
