(* Differential fuzzing over the whole stack: QCheck-driven mutations
   of generated enterprise and fattree configurations (flip a route-map
   action, rotate local-preferences, drop a link), verified with
   certification on.

   Oracle: the concrete control-plane simulator.  Both generators give
   some devices external BGP peers, so the symbolic environment is
   strictly larger than any one concrete run; agreement is therefore
   checked in the sound direction — a Verified reachability verdict
   quantifies over every environment and must hold in the empty one the
   simulator computes — while Violated verdicts are checked by
   certification itself, which replays the decoded counterexample's
   environment through the same simulator (Checked_model implies
   per-device agreement).  Every verdict must carry a positive
   certificate: an Uncertified or failed one fails the fuzzer.

   A second gate audits the enterprise fleet with certification on:
   each network's three §8.1 questions must be certified (no replay may
   disagree with the simulator) and answer as its injection label says.

   [dune runtest] runs small bounded samples; [make fuzz] raises the
   budgets via MS_FUZZ_COUNT and MS_FUZZ_FLEET (the whole fleet). *)

module MS = Minesweeper
module G = Generators
module A = Config.Ast

(* the budget and the semantic mutations are shared with test_serve's
   daemon differential *)
open Mutators

(* Mutations that break the configuration for the linter: the k-th
   interface applies an undefined ACL (MS-E003), the k-th BGP session
   to another device of the network names a wrong remote AS
   (MS-E301). *)
let dangle_acl k net =
  let i = ref (-1) in
  map_devices
    (fun d ->
      {
        d with
        A.dev_interfaces =
          List.map
            (fun (itf : A.interface) ->
              incr i;
              if !i = k then { itf with A.if_acl_in = Some "UNDEFINED" } else itf)
            d.A.dev_interfaces;
      })
    net

let misnumber_remote_as k net =
  let owner = A.address_index net in
  let i = ref (-1) in
  map_devices
    (fun d ->
      match d.A.dev_bgp with
      | None -> d
      | Some b ->
        let nbrs =
          List.map
            (fun (n : A.bgp_neighbor) ->
              if owner n.A.nbr_ip = None then n
              else begin
                incr i;
                if !i = k then { n with A.nbr_remote_as = n.A.nbr_remote_as + 1 } else n
              end)
            b.A.bgp_neighbors
        in
        { d with A.dev_bgp = Some { b with A.bgp_neighbors = nbrs } })
    net

(* Every mutation above, the lint-breaking ones included. *)
let lint_mutations seed =
  [
    ("none", Fun.id);
    ("flip-rm-action", flip_rm_action seed);
    ("rotate-local-prefs", rotate_local_prefs);
    ("drop-link", drop_link seed);
    ("dangle-acl", dangle_acl (seed mod 8));
    ("misnumber-remote-as", misnumber_remote_as (seed mod 2));
  ]

(* ---- the differential property ---- *)

let check_one name seed net ~src ~dest_device ~dest_prefix =
  let mname, net = mutate seed net in
  let label = Printf.sprintf "%s seed %d (%s)" name seed mname in
  let opts = MS.Options.with_certify MS.Options.default in
  match MS.Encode.build net opts with
  | exception Analysis.Lint.Lint_errors _ ->
    (* a mutation can invalidate the configuration outright; nothing to
       verify differentially then *)
    true
  | enc ->
    let dest = MS.Property.Subnet (dest_device, dest_prefix) in
    let q =
      MS.Verify.Query.v "fuzz-reachability" (fun enc ->
          MS.Property.reachability enc ~sources:[ src ] dest)
    in
    let r = MS.Verify.run_query enc q in
    (match r.MS.Verify.Report.certificate with
     | MS.Verify.Report.Checked_unsat_proof _ | MS.Verify.Report.Checked_model -> ()
     | MS.Verify.Report.Uncertified ->
       QCheck.Test.fail_reportf "%s: verdict left uncertified with --certify on" label
     | MS.Verify.Report.Certification_failed msg ->
       QCheck.Test.fail_reportf "%s: certification failed: %s" label msg);
    (match r.MS.Verify.Report.verdict with
     | MS.Verify.Report.Verified ->
       (* holds for every environment, hence for the empty one *)
       let state = Routing.Simulator.run net Routing.Simulator.empty_env in
       if Routing.Simulator.converged state then begin
         let ip = Net.Prefix.first dest_prefix in
         if not (Routing.Dataplane.reachable net state ~src ~dst:ip) then
           QCheck.Test.fail_reportf
             "%s: SMT says reachable in every environment, simulator disagrees in the empty one"
             label
       end
     | MS.Verify.Report.Violated _ -> ()
     | MS.Verify.Report.Timeout | MS.Verify.Report.Error _ ->
       QCheck.Test.fail_reportf "%s: query timed out or errored" label);
    true

let prop_enterprise =
  QCheck.Test.make ~name:"mutated enterprise nets: certified differential" ~count:fuzz_count
    (QCheck.make QCheck.Gen.(int_range 0 99999))
    (fun seed ->
      let t =
        G.Enterprise.make ~seed:(seed mod 37) ~routers:(4 + (seed mod 4))
          ~inject:G.Enterprise.no_bugs ()
      in
      let net = t.G.Enterprise.network in
      let devices = List.map (fun (d : A.device) -> d.A.dev_name) net.A.net_devices in
      let src = List.hd devices in
      let dest_device = List.hd (List.rev devices) in
      check_one "enterprise" seed net ~src ~dest_device
        ~dest_prefix:(t.G.Enterprise.mgmt_prefix dest_device))

let prop_fattree =
  QCheck.Test.make ~name:"mutated fattree nets: certified differential" ~count:fuzz_count
    (QCheck.make QCheck.Gen.(int_range 0 99999))
    (fun seed ->
      let ft = G.Fattree.make ~pods:2 in
      let net = ft.G.Fattree.network in
      let dst_tor = List.hd ft.G.Fattree.tors in
      let src = List.hd (List.filter (fun t -> t <> dst_tor) ft.G.Fattree.tors) in
      check_one "fattree" seed net ~src ~dest_device:dst_tor
        ~dest_prefix:(ft.G.Fattree.tor_subnet dst_tor))

(* ---- fault invariance vs brute-force failure enumeration ---- *)

(* All subsets of size <= k, as lists. *)
let rec subsets_leq k = function
  | [] -> [ [] ]
  | _ when k = 0 -> [ [] ]
  | x :: rest ->
    let without = subsets_leq k rest in
    let with_x = List.map (fun s -> x :: s) (subsets_leq (k - 1) rest) in
    without @ with_x

let canonical_pairs net =
  let seen = Hashtbl.create 16 in
  List.iter
    (fun (l : Net.Topology.link) ->
      let a = l.Net.Topology.a.Net.Topology.device
      and b = l.Net.Topology.b.Net.Topology.device in
      Hashtbl.replace seen (if a < b then (a, b) else (b, a)) ())
    (Net.Topology.links net.A.net_topology);
  Hashtbl.fold (fun p () acc -> p :: acc) seen []

(* The ground truth on a small topology: enumerate every failure set of
   size <= k and ask the concrete simulator whether any of them changes
   some source's reachability of the destination subnet.  The pods=2
   fat tree has 4 internal links, so the enumeration stays tiny. *)
let prop_fault_brute =
  QCheck.Test.make ~name:"fault-invariance vs brute-force failure enumeration"
    ~count:fuzz_count
    (QCheck.make QCheck.Gen.(pair (int_range 0 99999) (int_range 0 2)))
    (fun (seed, k) ->
      let ft = G.Fattree.make ~pods:2 in
      let net = ft.G.Fattree.network in
      (* pre-drop a random link subset of size <= k so the checked
         topologies are not all the pristine fabric *)
      let drops = seed mod (k + 1) in
      let net =
        List.fold_left (fun n i -> drop_link (seed / (i + 2)) n) net (List.init drops Fun.id)
      in
      let dst_tor = List.hd ft.G.Fattree.tors in
      let dest_prefix = ft.G.Fattree.tor_subnet dst_tor in
      let dest = MS.Property.Subnet (dst_tor, dest_prefix) in
      let sources = List.map (fun (d : A.device) -> d.A.dev_name) net.A.net_devices in
      let label = Printf.sprintf "fault-brute seed %d k %d (%d pre-dropped)" seed k drops in
      match MS.Verify.fault_invariant net MS.Options.default ~k ~sources dest with
      | exception Analysis.Lint.Lint_errors _ -> true
      | r ->
        let dst_ip = Net.Prefix.first dest_prefix in
        let state0 = Routing.Simulator.run net Routing.Simulator.empty_env in
        if not (Routing.Simulator.converged state0) then true
        else begin
          let healthy =
            List.map
              (fun s -> (s, Routing.Dataplane.reachable net state0 ~src:s ~dst:dst_ip))
              sources
          in
          let broken_by fails =
            let env = { Routing.Simulator.external_ads = []; failed_links = fails } in
            let state = Routing.Simulator.run net env in
            Routing.Simulator.converged state
            && List.exists
                 (fun (s, was) ->
                   Routing.Dataplane.reachable net state ~src:s ~dst:dst_ip <> was)
                 healthy
          in
          let oracle_broken = List.exists broken_by (subsets_leq k (canonical_pairs net)) in
          (match r.MS.Verify.Report.verdict with
           | MS.Verify.Report.Verified ->
             (* Verified quantifies over every environment and failure
                set, so the concrete enumeration must find nothing *)
             if oracle_broken then
               QCheck.Test.fail_reportf
                 "%s: SMT says invariant, brute-force enumeration breaks it" label
           | MS.Verify.Report.Violated _ ->
             (* the SMT counterexample may use an adversarial routing
                environment; only graph-eligible networks pin verdicts
                to pure connectivity, where the empty-environment
                enumeration is exact *)
             if (not oracle_broken) && Result.is_ok (Faults.eligible net dest) then
               QCheck.Test.fail_reportf
                 "%s: SMT says broken on a graph-eligible net, enumeration of all <=%d-subsets \
                  disagrees"
                 label k
           | MS.Verify.Report.Timeout | MS.Verify.Report.Error _ ->
             QCheck.Test.fail_reportf "%s: query timed out or errored" label);
          (* the graph fast path, when it decides, must match the oracle *)
          (match Faults.analyze net ~k ~sources dest with
           | Faults.Invariant ->
             if oracle_broken then
               QCheck.Test.fail_reportf "%s: graph path says invariant, oracle disagrees" label
           | Faults.Broken _ ->
             if not oracle_broken then
               QCheck.Test.fail_reportf "%s: graph path says broken, oracle disagrees" label
           | Faults.Undecided _ -> ());
          true
        end)

(* ---- the certified fleet: every verdict replays and matches its label ---- *)

(* How many of the 152 fleet networks to audit: a seeded sample in
   [dune runtest], the whole fleet under [make fuzz]. *)
let fleet_count =
  match Sys.getenv_opt "MS_FUZZ_FLEET" with
  | Some s -> ( try max 1 (int_of_string s) with _ -> 20)
  | None -> 20

(* The three audit questions of §8.1, each paired with the injection
   label that says whether it must be violated. *)
let fleet_queries (t : G.Enterprise.t) =
  let devices = List.map (fun (d : A.device) -> d.A.dev_name) t.G.Enterprise.network.A.net_devices in
  let last = List.nth devices (List.length devices - 1) in
  let inj = t.G.Enterprise.injected in
  let mgmt =
    MS.Verify.Query.v "mgmt-reachability" (fun enc ->
        MS.Property.reachability enc ~sources:devices
          (MS.Property.Subnet (last, t.G.Enterprise.mgmt_prefix last)))
  in
  let allowed = t.G.Enterprise.edge_routers @ t.G.Enterprise.rack_role in
  let holes =
    MS.Verify.Query.v "no-blackholes" (fun enc -> MS.Property.no_blackholes enc ~allowed ())
  in
  let equiv =
    match t.G.Enterprise.rack_role with
    | r1 :: r2 :: _ ->
      [ (MS.Verify.Query.v "acl-equivalence" (fun enc -> MS.Property.acl_equivalence enc r1 r2),
         inj.G.Enterprise.acl_gap) ]
    | [] | [ _ ] -> []
  in
  [ (mgmt, inj.G.Enterprise.hijack); (holes, inj.G.Enterprise.deep_drop) ] @ equiv

let fleet = lazy (Array.of_list (G.Enterprise.fleet ()))

(* [count] fleet indices drawn by a seeded shuffle, sorted. *)
let fleet_sample count =
  let n = Array.length (Lazy.force fleet) in
  if count >= n then List.init n Fun.id
  else begin
    let rng = Random.State.make [| 21 |] in
    let order = Array.init n Fun.id in
    for i = n - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let x = order.(i) in
      order.(i) <- order.(j);
      order.(j) <- x
    done;
    List.sort compare (Array.to_list (Array.sub order 0 count))
  end

let test_certified_fleet () =
  let fleet = Lazy.force fleet in
  let picks = fleet_sample fleet_count in
  let opts = MS.Options.with_certify MS.Options.default in
  let failures =
    List.concat_map
      (fun i ->
        let t = fleet.(i) in
        let enc = MS.Encode.build t.G.Enterprise.network opts in
        List.filter_map
          (fun (q, injected) ->
            let r = MS.Verify.run_query enc q in
            let what = Printf.sprintf "net %d %s" i r.MS.Verify.Report.label in
            match (r.MS.Verify.Report.certificate, r.MS.Verify.Report.verdict) with
            | MS.Verify.Report.Certification_failed msg, _ ->
              Some (Printf.sprintf "%s: certification failed: %s" what msg)
            | MS.Verify.Report.Uncertified, _ -> Some (what ^ ": uncertified")
            | _, MS.Verify.Report.Verified when injected -> Some (what ^ ": injected bug missed")
            | _, MS.Verify.Report.Violated _ when not injected ->
              Some (what ^ ": violated on a clean network")
            | _, (MS.Verify.Report.Timeout | MS.Verify.Report.Error _) ->
              Some (what ^ ": timeout or error")
            | _, (MS.Verify.Report.Verified | MS.Verify.Report.Violated _) -> None)
          (fleet_queries t))
      picks
  in
  List.iter prerr_endline failures;
  Alcotest.(check int)
    (Printf.sprintf "failed verdicts over %d fleet networks" (List.length picks))
    0 (List.length failures)

(* ---- the lint pre-flight against the full linter ---- *)

(* 20 fleet networks under every mutation, the lint-breaking ones
   included. *)
let lint_corpus seed =
  let fleet = Lazy.force fleet in
  List.concat_map
    (fun i ->
      List.map
        (fun (m, f) -> (Printf.sprintf "net %d %s" i m, f fleet.(i).G.Enterprise.network))
        (lint_mutations (seed + i)))
    (fleet_sample 20)

let render diags = String.concat "\n" (List.map Analysis.Diagnostic.to_string diags)

(* The pre-flight runs only the error-capable families, and must raise
   exactly the errors of the full linter. *)
let prop_preflight_matches_run =
  QCheck.Test.make ~name:"preflight raises exactly the linter's errors" ~count:10
    (QCheck.make QCheck.Gen.(int_range 0 99999))
    (fun seed ->
      let raised = ref 0 in
      List.iter
        (fun (what, net) ->
          let errs = Analysis.Lint.errors (Analysis.Lint.run net) in
          match Analysis.Lint.preflight net with
          | () ->
            if errs <> [] then
              QCheck.Test.fail_reportf "%s: preflight passed, the linter reports\n%s" what
                (render errs)
          | exception Analysis.Lint.Lint_errors l ->
            incr raised;
            if l = [] || l <> errs then
              QCheck.Test.fail_reportf "%s: preflight raised\n%s\nthe linter reports\n%s" what
                (render l) (render errs))
        (lint_corpus seed);
      (* the corpus must exercise the raising side *)
      !raised > 0)

let test_warning_only_families () =
  List.iter
    (fun (what, net) ->
      List.iter
        (fun check ->
          match List.filter Analysis.Diagnostic.is_error (check net) with
          | [] -> ()
          | errs -> Alcotest.failf "%s: a warning-only family reported\n%s" what (render errs))
        Analysis.Lint.warning_only)
    (lint_corpus 0)

let () =
  Alcotest.run "fuzz"
    [
      ( "differential",
        [
          QCheck_alcotest.to_alcotest prop_enterprise;
          QCheck_alcotest.to_alcotest prop_fattree;
          QCheck_alcotest.to_alcotest prop_fault_brute;
        ] );
      ("fleet", [ Alcotest.test_case "certified verdicts match labels" `Slow test_certified_fleet ]);
      ( "lint",
        [
          QCheck_alcotest.to_alcotest prop_preflight_matches_run;
          Alcotest.test_case "warning-only families emit no error" `Quick
            test_warning_only_families;
        ] );
    ]
