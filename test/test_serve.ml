(* The serve daemon: protocol handling (malformed requests, schema
   checks), the socket server (disconnects mid-request, concurrent
   clients racing a diff), and the heart of the matter — a differential
   test pinning delta re-verification to full re-verification over
   random configuration churn. *)

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

(* -- delta vs full differential on random churn ----------------------------- *)

(* Deterministic churn: each step mutates one of the first two racks'
   ACLs — a flipped action or an appended entry — yielding a parseable
   config whose diff touches exactly that device.  Racks beyond the
   first two are never touched, so verdicts localized to them can
   replay.  Ground truth per step is a fresh daemon that loads the
   mutated text cold. *)
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

let test_delta_vs_full () =
  let t = Lazy.force base_t in
  let query = req_query t in
  let delta = Serve.create default in
  ignore (ask delta (req_load (print_net t.G.Enterprise.network)));
  ignore (ask delta query);
  let net = ref t.G.Enterprise.network in
  for step = 0 to 3 do
    net := mutate_rack step t !net;
    let text = print_net !net in
    let dresp = ask delta (req_diff text) in
    (match Option.bind (J.member "mode" dresp) J.get_string with
     | Some ("delta" | "full") -> ()
     | _ -> Alcotest.fail "diff response lacks a mode");
    let got = verdicts (ask delta query) in
    (* ground truth: a cold daemon on the same text *)
    let full = Serve.create default in
    ignore (ask full (req_load text));
    let want = verdicts (ask full query) in
    List.iteri
      (fun i ((l_got, v_got), (l_want, v_want)) ->
        Alcotest.(check string) (Printf.sprintf "step %d label %d" step i) l_want l_got;
        if v_got <> v_want then
          Alcotest.failf "step %d, %s: delta daemon says %s, full verification says %s" step
            l_got v_got v_want)
      (List.combine got want)
  done;
  (* the churn only ever touched the first two racks, so the remote
     pair's verdict must have been replayed rather than re-solved *)
  let stats = ask delta {|{"schema":2,"op":"stats"}|} in
  Alcotest.(check bool) "replays happened" true (get_int_field stats "delta_replays" > 0);
  Alcotest.(check bool) "some diffs stayed delta" true (get_int_field stats "delta_diffs" > 0)

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

(* A daemon under churn must not age: once its encoding cache is full,
   every new encoding evicts an old one, and the evicted encoding's
   terms must be reclaimed with it.  Live words after a full collection
   at step 2N stay within a slack of those at step N. *)
let test_heap_flat_under_churn () =
  let t = Lazy.force base_t in
  let query = req_query t in
  let d = Serve.create default in
  ignore (ask d (req_load (print_net t.G.Enterprise.network)));
  ignore (ask d query);
  let n = 10 in
  let live_words () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  let net = ref t.G.Enterprise.network in
  let at_n = ref 0 in
  for step = 1 to 2 * n do
    net := edit_rack step t !net;
    ignore (ask d (req_diff (print_net !net)));
    ignore (ask d query);
    if step = n then at_n := live_words ()
  done;
  let at_2n = live_words () in
  let stats = ask d {|{"schema":2,"op":"stats"}|} in
  Alcotest.(check int) "encoding cache full" 8 (get_int_field stats "enc_cache_size");
  (* 10% covers allocator noise; without reclamation the heap grows by
     one encoding's terms per step *)
  if float_of_int at_2n > 1.10 *. float_of_int !at_n then
    Alcotest.failf "live heap grew from %d words at step %d to %d at step %d" !at_n n at_2n (2 * n)

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
          Alcotest.test_case "delta vs full on churn" `Slow test_delta_vs_full;
          Alcotest.test_case "verdict and encoding caches" `Slow test_caches;
          Alcotest.test_case "support tracking" `Quick test_support_tracking;
          Alcotest.test_case "heap flat under churn" `Slow test_heap_flat_under_churn;
        ] );
      ("socket", [ Alcotest.test_case "daemon over a unix socket" `Slow test_socket_server ]);
    ]
