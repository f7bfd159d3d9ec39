(* The serve daemon: protocol handling (malformed requests, schema
   checks), the socket server (disconnects mid-request, concurrent
   clients racing a diff), and the heart of the matter — a randomized
   differential pinning every answer of a daemon under configuration
   churn (delta replay, encoding-cache hits, solver rebases, fresh
   solvers) to cold re-verification of the same configuration. *)

module MS = Minesweeper
module G = Generators
module A = Config.Ast
module J = Msutil.Json

let default = MS.Options.default
let print_net = Config.Printer.network_to_string

let base_t = lazy (G.Enterprise.make ~seed:3 ~routers:8 ~inject:G.Enterprise.no_bugs ())

(* -- request/response helpers ----------------------------------------------- *)

let req_load text = Printf.sprintf {|{"schema":2,"op":"load","config":%s}|} (J.quote text)
let req_diff text = Printf.sprintf {|{"schema":2,"op":"diff","config":%s}|} (J.quote text)

(* The query suite of the differential: an equivalence pair inside the
   churn zone (its verdict must be re-solved), one far away from it
   (its verdict must replay across diffs), a localized reachability,
   and a global property (never replayed, always re-solved). *)
let req_query (t : G.Enterprise.t) =
  let r1, r2, r3, r4 =
    match t.G.Enterprise.rack_role with
    | a :: b :: c :: d :: _ -> (a, b, c, d)
    | _ -> Alcotest.fail "enterprise has fewer than four racks"
  in
  Printf.sprintf
    {|{"schema":2,"op":"query","queries":[{"property":"acl-equivalence","label":"acl-eq-churned","devices":["%s","%s"]},{"property":"acl-equivalence","label":"acl-eq-remote","devices":["%s","%s"]},{"property":"reachability","sources":["%s"],"dst_device":"%s","dst_prefix":"%s"},{"property":"loops"}]}|}
    r1 r2 r3 r4 r1 r2
    (Net.Prefix.to_string (t.G.Enterprise.rack_subnet r2))

let parse_resp line =
  match J.parse line with
  | Ok v -> v
  | Error e -> Alcotest.failf "unparseable response %s: %s" line e

let get_bool_field resp k =
  match Option.bind (J.member k resp) J.get_bool with
  | Some b -> b
  | None -> Alcotest.failf "response lacks boolean %s" k

let get_int_field resp k =
  match Option.bind (J.member k resp) J.get_int with
  | Some n -> n
  | None -> Alcotest.failf "response lacks integer %s" k

let expect_ok resp =
  Alcotest.(check int) "schema 2" 2 (get_int_field resp "schema");
  if not (get_bool_field resp "ok") then
    Alcotest.failf "request failed: %s"
      (Option.value ~default:"?" (Option.bind (J.member "error" resp) J.get_string))

let expect_err line =
  let resp = parse_resp line in
  Alcotest.(check int) "schema 2" 2 (get_int_field resp "schema");
  Alcotest.(check bool) "ok=false" false (get_bool_field resp "ok");
  match Option.bind (J.member "error" resp) J.get_string with
  | Some e -> e
  | None -> Alcotest.fail "error response lacks an error message"

let ask d line =
  let resp, _ = Serve.handle_line d line in
  let v = parse_resp resp in
  expect_ok v;
  v

let verdicts resp =
  match Option.bind (J.member "reports" resp) J.get_list with
  | None -> Alcotest.fail "query response lacks reports"
  | Some rs ->
    List.map
      (fun r ->
        ( Option.value ~default:"?" (Option.bind (J.member "label" r) J.get_string),
          Option.value ~default:"?" (Option.bind (J.member "verdict" r) J.get_string) ))
      rs

(* -- protocol errors -------------------------------------------------------- *)

let test_malformed () =
  let d = Serve.create default in
  let e = expect_err (fst (Serve.handle_line d "{nope")) in
  Alcotest.(check bool) "names the parse error" true
    (String.length e >= 14 && String.sub e 0 14 = "malformed JSON");
  ignore (expect_err (fst (Serve.handle_line d "[1,2]")));
  ignore (expect_err (fst (Serve.handle_line d {|{"op":"load"}|})));
  ignore (expect_err (fst (Serve.handle_line d {|{"op":"frobnicate"}|})));
  ignore (expect_err (fst (Serve.handle_line d {|{"schema":1,"op":"stats"}|})));
  ignore (expect_err (fst (Serve.handle_line d {|{"schema":2,"op":"query","queries":[]}|})));
  (* query and diff before any load *)
  ignore
    (expect_err
       (fst (Serve.handle_line d {|{"schema":2,"op":"query","queries":[{"property":"loops"}]}|})));
  ignore (expect_err (fst (Serve.handle_line d (req_diff "hostname R1"))));
  (* a config that does not parse *)
  ignore (expect_err (fst (Serve.handle_line d (req_load "hostname R1\nbananas"))));
  (* the daemon survives all of the above *)
  let resp = ask d {|{"schema":2,"op":"stats"}|} in
  Alcotest.(check bool) "not loaded" false (get_bool_field resp "loaded")

(* Old clients may still send the per-request fan-out member ["jobs"]
   the daemon once honoured: it is ignored like any unknown member, so
   the reply is the one the same request gets without it. *)
let test_jobs_ignored () =
  let t = Lazy.force base_t in
  let q = req_query t in
  let with_jobs =
    let tag = {|"op":"query",|} in
    let i = Str.search_forward (Str.regexp_string tag) q 0 + String.length tag in
    String.sub q 0 i ^ {|"jobs":4,|} ^ String.sub q i (String.length q - i)
  in
  let answer line =
    let d = Serve.create default in
    ignore (ask d (req_load (print_net t.G.Enterprise.network)));
    let resp = ask d line in
    (verdicts resp, get_int_field resp "answered", get_int_field resp "solved")
  in
  let plain_v, plain_n, plain_s = answer q in
  let jobs_v, jobs_n, jobs_s = answer with_jobs in
  Alcotest.(check (list (pair string string))) "same verdicts" plain_v jobs_v;
  Alcotest.(check int) "same answered" plain_n jobs_n;
  Alcotest.(check int) "same solved" plain_s jobs_s;
  (* the daemon itself takes no fan-out either *)
  Alcotest.check_raises "Serve.create ~jobs:2"
    (Invalid_argument "Serve.create: ~jobs must be 1") (fun () ->
      ignore (Serve.create ~jobs:2 default))

(* -- delta vs cold differential on random churn ----------------------------- *)

(* A rack edit: [step] picks one of the first two racks' ACLs and
   either appends an entry or flips the first one, yielding a parseable
   config whose diff touches exactly that device.  Racks beyond the
   first two are never touched, so verdicts localized to them can
   replay. *)
let mutate_rack step (t : G.Enterprise.t) (net : A.network) =
  let racks = t.G.Enterprise.rack_role in
  let victim = List.nth racks (step mod min 2 (List.length racks)) in
  let subnet = t.G.Enterprise.rack_subnet victim in
  let mutate_acl (acl : A.acl) =
    if step mod 2 = 0 then
      {
        acl with
        A.acl_entries =
          acl.A.acl_entries
          @ [
              {
                A.acl_action = A.Deny;
                acl_dst = Net.Prefix.make (Net.Prefix.first subnet) 32;
              };
            ];
      }
    else
      {
        acl with
        A.acl_entries =
          (match acl.A.acl_entries with
           | e :: rest ->
             {
               e with
               A.acl_action = (match e.A.acl_action with A.Permit -> A.Deny | A.Deny -> A.Permit);
             }
             :: rest
           | [] -> [ { A.acl_action = A.Deny; acl_dst = subnet } ]);
      }
  in
  {
    net with
    A.net_devices =
      List.map
        (fun (d : A.device) ->
          if d.A.dev_name <> victim then d
          else
            match d.A.dev_acls with
            | acl :: rest -> { d with A.dev_acls = mutate_acl acl :: rest }
            | [] ->
              {
                d with
                A.dev_acls = [ { A.acl_name = "90"; acl_entries = [ { A.acl_action = A.Deny; acl_dst = subnet } ] } ];
              })
        net.A.net_devices;
  }

(* The suite's verdicts, answered in-process on session [s]. *)
let session_verdicts (t : G.Enterprise.t) s =
  let specs =
    match MS.Verify.Protocol.parse_request (req_query t) with
    | Ok (MS.Verify.Protocol.Query { specs; _ }) -> specs
    | _ -> Alcotest.fail "the suite request does not parse"
  in
  let enc = MS.Verify.Session.encoding s in
  List.concat_map
    (fun spec ->
      match MS.Verify.Protocol.queries_of_spec enc spec with
      | Error e -> Alcotest.fail e
      | Ok qs ->
        List.map
          (fun q ->
            let r = MS.Verify.Session.run_one s q in
            (r.MS.Verify.Report.label, MS.Verify.Report.verdict_name r.MS.Verify.Report.verdict))
          qs)
    specs

(* The suite's verdicts on [net] from a cold session with [opts] —
   merges on, no support tracking, a fresh solver: the ground truth for
   every daemon answer.  [None] when the configuration does not encode
   (a mutation can break it for the linter). *)
let cold_verdicts opts t net =
  match MS.Encode.build net opts with
  | exception Analysis.Lint.Lint_errors _ -> None
  | enc -> Some (session_verdicts t (MS.Verify.Session.of_encoding enc))

(* The daemon's answer to the suite; [None] on an error response (the
   suite's loop check never replays, so a configuration that does not
   encode always errors). *)
let daemon_verdicts d t =
  let resp = parse_resp (fst (Serve.handle_line d (req_query t))) in
  if get_bool_field resp "ok" then Some (verdicts resp) else None

(* One step of a churn sequence: a semantic mutation shared with the
   fuzzer (a flipped route-map clause, rotated local preferences, a
   dropped link — which changes the topology and forces a full diff), an edit
   to one of the first two racks' ACLs (the delta path), or a flap back
   to a configuration seen earlier in the sequence. *)
let churn_step (t : G.Enterprise.t) history k =
  let cur = List.hd history in
  match k mod 6 with
  | 0 -> ("flip-rm-action", Mutators.flip_rm_action (k / 6) cur)
  | 1 -> ("rotate-local-prefs", Mutators.rotate_local_prefs cur)
  | 2 -> ("drop-link", Mutators.drop_link (k / 6) cur)
  | 3 | 4 -> ("rack-acl", mutate_rack (k / 6) t cur)
  | _ -> ("flap-back", List.nth history (k / 6 mod List.length history))

(* A random sequence of diffs through [Serve.handle_line], each answer
   compared with a cold session on the same configuration. *)
let delta_vs_cold ~name ~count opts =
  QCheck.Test.make ~name ~count
    (QCheck.make
       ~print:QCheck.Print.(list int)
       QCheck.Gen.(list_size (int_range 3 6) (int_range 0 99999)))
    (fun ops ->
      let t = Lazy.force base_t in
      let d = Serve.create opts in
      let cold = Hashtbl.create 8 in
      (* the cold side verifies the text the daemon was sent *)
      let check what net =
        let text = print_net net in
        let want =
          match Hashtbl.find_opt cold text with
          | Some w -> w
          | None ->
            let w = cold_verdicts opts t (Config.Parser.parse_network text) in
            Hashtbl.replace cold text w;
            w
        in
        let got = daemon_verdicts d t in
        if got <> want then
          let show = function
            | None -> "error"
            | Some vs -> String.concat "; " (List.map (fun (l, v) -> l ^ "=" ^ v) vs)
          in
          QCheck.Test.fail_reportf "%s: daemon answered [%s], cold session [%s]" what (show got)
            (show want)
      in
      ignore (ask d (req_load (print_net t.G.Enterprise.network)));
      check "load" t.G.Enterprise.network;
      ignore
        (List.fold_left
           (fun (i, history) k ->
             let kind, net = churn_step t history k in
             let resp = ask d (req_diff (print_net net)) in
             (match Option.bind (J.member "mode" resp) J.get_string with
              | Some ("delta" | "full") -> ()
              | _ -> QCheck.Test.fail_reportf "step %d (%s): diff response lacks a mode" i kind);
             check (Printf.sprintf "step %d (%s)" i kind) net;
             (i + 1, net :: history))
           (0, [ t.G.Enterprise.network ])
           ops);
      true)

let prop_delta_vs_cold =
  delta_vs_cold ~name:"delta vs full on churn" ~count:Mutators.fuzz_count default

(* Link failures put the failure-cardinality bound among the unscoped
   assertions, so a cut link changes them: the daemon must notice and
   start a fresh solver. *)
let prop_delta_vs_cold_failures =
  delta_vs_cold ~name:"delta vs full on churn, max_failures=1"
    ~count:(max 1 (Mutators.fuzz_count / 3))
    { default with MS.Options.max_failures = Some 1 }

(* -- one solver, many views --------------------------------------------------- *)

let verdict_list = Alcotest.(list (pair string string))

let rebase_exn s enc =
  match MS.Verify.Session.rebase s enc with
  | Some v -> v
  | None -> Alcotest.fail "rebase refused an encoding with unchanged shared assertions"

(* Two views of one solver answering alternately must each answer as a
   cold session on their own configuration.  This pins the activation
   literals to one counter per solver: with a counter per view, the
   second view would mint the first one's live literal, and the two
   queries guarded by it would be checked together. *)
let test_views_alternate () =
  let t = Lazy.force base_t in
  let net_a = t.G.Enterprise.network in
  let net_b = mutate_rack 1 t net_a in
  (* the daemon's options: with the merges on, ACL semantics would be
     inlined into the property terms and no slice would change *)
  let opts = { default with MS.Options.merge_dataplane = false; merge_filters = false } in
  let build net = MS.Encode.build ~namespace:"views" net opts in
  let want net =
    match cold_verdicts default t net with Some w -> w | None -> Alcotest.fail "lint errors"
  in
  let want_a = want net_a and want_b = want net_b in
  Alcotest.(check bool) "the edit changes a verdict" true (want_a <> want_b);
  let va = MS.Verify.Session.of_encoding ~support:true (build net_a) in
  let guards = MS.Verify.Session.live_guards va in
  Alcotest.(check int) "a guard per device" (List.length net_a.A.net_devices) guards;
  let vb = rebase_exn va (build net_b) in
  Alcotest.(check int) "the edited rack alone is re-guarded" (guards + 1)
    (MS.Verify.Session.live_guards vb);
  List.iteri
    (fun i (name, v, want) ->
      Alcotest.check verdict_list (Printf.sprintf "turn %d (%s)" i name) want (session_verdicts t v))
    [ ("A", va, want_a); ("B", vb, want_b); ("A", va, want_a); ("B", vb, want_b) ];
  (* rebuilding A in the same name-space shares every slice *)
  let va' = rebase_exn vb (build net_a) in
  Alcotest.(check int) "a rebuild adds no guard" (guards + 1) (MS.Verify.Session.live_guards va');
  Alcotest.check verdict_list "rebuilt A" want_a (session_verdicts t va')

(* With link failures on, the failure-cardinality bound is an unscoped
   assertion over every link: a cut link changes it, [rebase] must
   refuse, and the daemon must answer on a fresh solver. *)
let test_unscoped_change () =
  let t = Lazy.force base_t in
  let opts = { default with MS.Options.max_failures = Some 1 } in
  let net_a = t.G.Enterprise.network in
  let text_b = print_net (Mutators.drop_link 0 net_a) in
  let net_b = Config.Parser.parse_network text_b in
  Alcotest.(check bool) "the cut changes the topology" true
    (List.length (Net.Topology.links net_b.A.net_topology)
    < List.length (Net.Topology.links net_a.A.net_topology));
  let build net = MS.Encode.build ~namespace:"unscoped" net opts in
  let s = MS.Verify.Session.of_encoding ~support:true (build net_a) in
  Alcotest.(check bool) "rebase refused" true
    (Option.is_none (MS.Verify.Session.rebase s (build net_b)));
  let d = Serve.create opts in
  ignore (ask d (req_load (print_net net_a)));
  Alcotest.(check (option verdict_list)) "before the cut" (cold_verdicts opts t net_a)
    (daemon_verdicts d t);
  ignore (ask d (req_diff text_b));
  Alcotest.(check (option verdict_list)) "after the cut" (cold_verdicts opts t net_b)
    (daemon_verdicts d t);
  let stats = ask d {|{"schema":2,"op":"stats"}|} in
  Alcotest.(check int) "two fresh solvers" 2 (get_int_field stats "fresh_solvers");
  Alcotest.(check int) "no rebase" 0 (get_int_field stats "rebases")

(* Rack-ACL churn keeps the topology, so every diff stays delta, and it
   touches only the first two racks, so verdicts whose support lies
   elsewhere (the remote pair's) are replayed rather than re-solved. *)
let test_delta_replays () =
  let t = Lazy.force base_t in
  let d = Serve.create default in
  ignore (ask d (req_load (print_net t.G.Enterprise.network)));
  ignore (daemon_verdicts d t);
  let reencoded () = get_int_field (ask d {|{"schema":2,"op":"stats"}|}) "reencoded_devices" in
  ignore
    (List.fold_left
       (fun net step ->
         let net = mutate_rack step t net in
         let text = print_net net in
         let before = reencoded () in
         let resp = ask d (req_diff text) in
         Alcotest.(check (option string))
           (Printf.sprintf "step %d mode" step)
           (Some "delta")
           (Option.bind (J.member "mode" resp) J.get_string);
         Alcotest.(check (option verdict_list))
           (Printf.sprintf "step %d verdicts" step)
           (cold_verdicts default t (Config.Parser.parse_network text))
           (daemon_verdicts d t);
         (* the rebuild re-encoded the rack and the two cores it hangs
            off, not the whole network *)
         let coupled = Option.bind (J.member "coupled" resp) J.get_list in
         Alcotest.(check (option int))
           (Printf.sprintf "step %d coupled set" step)
           (Some 3) (Option.map List.length coupled);
         Alcotest.(check int) (Printf.sprintf "step %d re-encoded" step) 3 (reencoded () - before);
         net)
       t.G.Enterprise.network [ 0; 1; 2; 3 ]);
  let stats = ask d {|{"schema":2,"op":"stats"}|} in
  Alcotest.(check int) "every diff stayed delta" 4 (get_int_field stats "delta_diffs");
  Alcotest.(check int) "no full diff" 0 (get_int_field stats "full_diffs");
  Alcotest.(check bool) "replays happened" true (get_int_field stats "delta_replays" > 0);
  Alcotest.(check int) "every query after a diff rebuilt" 4 (get_int_field stats "rebuilds")

(* A diff to a configuration the pre-flight rejects (two devices named
   alike, MS-E305) is accepted, but the query after it errors, and the
   failed rebuild leaves the daemon's solver and its rebuild base as
   they were: the next good configuration is rebuilt from the last one
   that encoded, re-encoding only what differs from it, and answers as
   a cold session does. *)
let test_bad_diff_keeps_serving () =
  let t = Lazy.force base_t in
  let net = t.G.Enterprise.network in
  let d = Serve.create default in
  ignore (ask d (req_load (print_net net)));
  ignore (daemon_verdicts d t);
  let solver_state () =
    let stats = ask d {|{"schema":2,"op":"stats"}|} in
    List.map (get_int_field stats)
      [ "solver_vars"; "live_guards"; "rebases"; "fresh_solvers"; "rebuilds"; "reencoded_devices" ]
  in
  let before = solver_state () in
  let dup = { net with A.net_devices = net.A.net_devices @ [ List.hd net.A.net_devices ] } in
  ignore (ask d (req_diff (print_net dup)));
  let e = expect_err (fst (Serve.handle_line d (req_query t))) in
  Alcotest.(check bool) "the error names the query" true (String.sub e 0 6 = "query:");
  Alcotest.(check (list int)) "solver untouched" before (solver_state ());
  let good = mutate_rack 0 t net in
  ignore (ask d (req_diff (print_net good)));
  Alcotest.(check (option verdict_list)) "answers as cold" (cold_verdicts default t good)
    (daemon_verdicts d t);
  let stats = ask d {|{"schema":2,"op":"stats"}|} in
  Alcotest.(check int) "one rebuild" 1 (get_int_field stats "rebuilds");
  match MS.Encode.affected default ~old_net:net good with
  | Some (_, coupled) ->
    Alcotest.(check int) "rebuilt from the last good base" (List.length coupled)
      (get_int_field stats "reencoded_devices")
  | None -> Alcotest.fail "a rack edit is not a network-wide change"

(* -- verdict cache and encoding cache --------------------------------------- *)

let test_caches () =
  let t = Lazy.force base_t in
  let query = req_query t in
  let text_a = print_net t.G.Enterprise.network in
  let text_b = print_net (mutate_rack 0 t t.G.Enterprise.network) in
  let d = Serve.create default in
  ignore (ask d (req_load text_a));
  let first = verdicts (ask d query) in
  (* same query again: answered wholly from the verdict cache *)
  let again = ask d query in
  Alcotest.(check bool) "verdict cache hit" true (get_int_field again "verdict_hits" > 0);
  Alcotest.(check int) "nothing solved" 0 (get_int_field again "solved");
  Alcotest.(check bool) "same verdicts" true (verdicts again = first);
  (* flap A -> B -> A: the reload of A reuses the cached encoding *)
  ignore (ask d (req_load text_b));
  ignore (ask d query);
  ignore (ask d (req_load text_a));
  ignore (ask d query);
  let stats = ask d {|{"schema":2,"op":"stats"}|} in
  Alcotest.(check bool) "encoding cache hit on the flap" true
    (get_int_field stats "enc_cache_hits" > 0);
  (* the memory fields ride along with the counters *)
  Alcotest.(check bool) "live terms reported" true (get_int_field stats "live_terms" > 0);
  match Option.bind (J.member "heap_mb" stats) J.get_float with
  | Some mb -> Alcotest.(check bool) "heap reported" true (mb > 0.)
  | None -> Alcotest.fail "stats lacks heap_mb"

(* -- memory under churn ----------------------------------------------------- *)

(* A single-rack ACL edit that yields a configuration the daemon has not
   seen before without growing the text: the edited rack (one of the
   first two, alternating) gets its base ACL headed by one deny entry
   for a step-distinct host, so each diff touches exactly one device. *)
let edit_rack step (t : G.Enterprise.t) (net : A.network) =
  let victim = List.nth t.G.Enterprise.rack_role (step mod 2) in
  let host = Net.Prefix.first (t.G.Enterprise.rack_subnet victim) + 1 + step in
  let deny = { A.acl_action = A.Deny; acl_dst = Net.Prefix.make host 32 } in
  let base =
    List.find (fun (d : A.device) -> d.A.dev_name = victim) t.G.Enterprise.network.A.net_devices
  in
  let acls =
    match base.A.dev_acls with
    | acl :: rest -> { acl with A.acl_entries = deny :: acl.A.acl_entries } :: rest
    | [] -> Alcotest.failf "rack %s has no ACL" victim
  in
  {
    net with
    A.net_devices =
      List.map
        (fun (d : A.device) -> if d.A.dev_name = victim then { d with A.dev_acls = acls } else d)
        net.A.net_devices;
  }

(* A daemon under churn must not age.  Each diff here re-guards one
   rack's slice on the daemon's one solver, and every query adds its own
   terms; once the solver carries twice the SAT variables it started
   with, the next encoding goes to a fresh solver, and the retired
   solver, its views and their terms must be reclaimed.  Over 100 diffs,
   live words after a full collection and the solver's variables stay
   within twice (plus slack) their values at step 20. *)
let test_heap_flat_under_churn () =
  let t = Lazy.force base_t in
  let query = req_query t in
  let d = Serve.create default in
  ignore (ask d (req_load (print_net t.G.Enterprise.network)));
  ignore (ask d query);
  let sample () =
    Gc.full_major ();
    let stats = ask d {|{"schema":2,"op":"stats"}|} in
    ((Gc.stat ()).Gc.live_words, get_int_field stats "solver_vars")
  in
  let net = ref t.G.Enterprise.network in
  let at_20 = ref (0, 0) in
  for step = 1 to 100 do
    net := edit_rack step t !net;
    ignore (ask d (req_diff (print_net !net)));
    ignore (ask d query);
    if step = 20 then at_20 := sample ()
    else if step mod 20 = 0 then begin
      let words, vars = sample () in
      let words_20, vars_20 = !at_20 in
      if float_of_int words > 2.2 *. float_of_int words_20 then
        Alcotest.failf "live heap grew from %d words at step 20 to %d at step %d" words_20 words step;
      if float_of_int vars > 2.2 *. float_of_int vars_20 then
        Alcotest.failf "solver grew from %d SAT variables at step 20 to %d at step %d" vars_20 vars
          step
    end
  done;
  let stats = ask d {|{"schema":2,"op":"stats"}|} in
  Alcotest.(check bool) "the 2x rule retired a solver" true
    (get_int_field stats "fresh_solvers" >= 2);
  Alcotest.(check bool) "most encodings were rebased" true
    (get_int_field stats "rebases" > get_int_field stats "fresh_solvers");
  Alcotest.(check bool) "encoding cache bounded" true (get_int_field stats "enc_cache_size" <= 8)

(* -- support tracking ------------------------------------------------------- *)

(* A support-tracking session must (a) agree with the plain session on
   verdicts and (b) attribute a localized Verified property to a proper
   subset of the devices. *)
let test_support_tracking () =
  let t = Lazy.force base_t in
  let net = t.G.Enterprise.network in
  let r1, r2 =
    match t.G.Enterprise.rack_role with a :: b :: _ -> (a, b) | _ -> Alcotest.fail "racks"
  in
  let q = MS.Verify.Query.v "acl-eq" (fun enc -> MS.Property.acl_equivalence enc r1 r2) in
  let plain = MS.Verify.Session.run_one (MS.Verify.Session.create net default) q in
  let s = MS.Verify.Session.create ~support:true net default in
  let tracked = MS.Verify.Session.run_one s q in
  Alcotest.(check string) "verdicts agree"
    (MS.Verify.Report.verdict_name plain.MS.Verify.Report.verdict)
    (MS.Verify.Report.verdict_name tracked.MS.Verify.Report.verdict);
  match tracked.MS.Verify.Report.verdict with
  | MS.Verify.Report.Verified -> (
    match tracked.MS.Verify.Report.support with
    | None -> Alcotest.fail "support-tracking session produced no support"
    | Some devs ->
      let all = List.map (fun (d : A.device) -> d.A.dev_name) net.A.net_devices in
      List.iter
        (fun d ->
          if not (List.mem d all) then Alcotest.failf "support names unknown device %s" d)
        devs;
      if List.length devs >= List.length all then
        Alcotest.failf "support of a local property spans all %d devices" (List.length all))
  | _ -> Alcotest.fail "acl-equivalence expected to hold on the clean enterprise"

(* -- the socket server ------------------------------------------------------ *)

let with_daemon f =
  let socket =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ms_serve_%d.sock" (Unix.getpid ()))
  in
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
    (try Serve.run (Serve.create default) ~socket with _ -> ());
    Unix._exit 0
  | pid ->
    Fun.protect
      ~finally:(fun () ->
        (try Unix.kill pid Sys.sigkill with _ -> ());
        (try ignore (Unix.waitpid [] pid) with _ -> ());
        if Sys.file_exists socket then Sys.remove socket)
      (fun () -> f socket pid)

let test_socket_server () =
  let t = Lazy.force base_t in
  let small_query =
    match t.G.Enterprise.rack_role with
    | a :: b :: _ ->
      Printf.sprintf
        {|{"schema":2,"op":"query","queries":[{"property":"acl-equivalence","devices":["%s","%s"]}]}|}
        a b
    | _ -> Alcotest.fail "racks"
  in
  with_daemon (fun socket pid ->
      let c = Serve.Client.connect_retry socket in
      (* malformed request over the wire *)
      ignore (expect_err (Serve.Client.request_line c "{nope"));
      (* a client disconnecting mid-request must not disturb anyone *)
      let half = Serve.Client.connect socket in
      Serve.Client.send_line half (req_load (print_net t.G.Enterprise.network));
      (* second request sent WITHOUT its newline, then the socket dies *)
      ignore (Serve.Client.read_line half);
      Serve.Client.send_raw half {|{"schema":2,"op":"query","queries":[{"prop|};
      Serve.Client.close half;
      (* two clients racing a diff against a query: both requests are
         written before either response is read; the daemon serializes
         them in arrival order and must answer both coherently *)
      let c2 = Serve.Client.connect socket in
      let mutated = print_net (mutate_rack 0 t t.G.Enterprise.network) in
      Serve.Client.send_line c (req_diff mutated);
      Serve.Client.send_line c2 small_query;
      let diff_resp = parse_resp (Serve.Client.read_line c) in
      let query_resp = parse_resp (Serve.Client.read_line c2) in
      expect_ok diff_resp;
      expect_ok query_resp;
      Alcotest.(check int) "one report" 1 (List.length (verdicts query_resp));
      (* clean shutdown *)
      let bye = parse_resp (Serve.Client.request_line c2 {|{"schema":2,"op":"shutdown"}|}) in
      expect_ok bye;
      Serve.Client.close c;
      Serve.Client.close c2;
      (match Unix.waitpid [] pid with
       | _, Unix.WEXITED 0 -> ()
       | _ -> Alcotest.fail "daemon did not exit cleanly on shutdown");
      Alcotest.(check bool) "socket file removed" false (Sys.file_exists socket))

let () =
  Alcotest.run "serve"
    [
      ( "protocol",
        [
          Alcotest.test_case "malformed requests" `Quick test_malformed;
          Alcotest.test_case "jobs member ignored" `Quick test_jobs_ignored;
        ] );
      ( "delta",
        [
          QCheck_alcotest.to_alcotest prop_delta_vs_cold;
          QCheck_alcotest.to_alcotest prop_delta_vs_cold_failures;
          Alcotest.test_case "views of one solver answer alternately" `Quick
            test_views_alternate;
          Alcotest.test_case "unscoped change starts a fresh solver" `Quick test_unscoped_change;
          Alcotest.test_case "delta diffs replay verdicts" `Quick test_delta_replays;
          Alcotest.test_case "a diff the pre-flight rejects" `Quick test_bad_diff_keeps_serving;
          Alcotest.test_case "verdict and encoding caches" `Slow test_caches;
          Alcotest.test_case "support tracking" `Quick test_support_tracking;
          Alcotest.test_case "heap flat under churn" `Slow test_heap_flat_under_churn;
        ] );
      ("socket", [ Alcotest.test_case "daemon over a unix socket" `Slow test_socket_server ]);
    ]
