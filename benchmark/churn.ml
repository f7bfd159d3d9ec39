(* serve-churn: writes beside reads on the verification daemon.

   The window is a run of episodes.  Each starts the daemon
   ([Serve.run], one job) on a Unix socket, loads a 12-router
   enterprise network and asks the suite once cold (ACL equivalence
   over rack pairs, management reachability, no blackholes).  One
   client then runs 20 closed-loop steps, each a [diff] to the step's
   configuration followed by a [query] of the suite.  The step mix:

   - 70% single-rack ACL edits, which take the delta-replay path;
   - 15% flap-backs to the configuration of 1-12 steps earlier, which
     straddle the daemon's 8-entry encoding cache;
   - 15% edge-router import-policy edits, which drop most cached
     verdicts.

   The daemon's steps slow down and its memory grows as it ages (from
   ~370 to ~500 ms a step over its first 50), so every episode's daemon
   answers the same number of steps: with one daemon per window, a
   faster commit would age it further than a slower one.

   A second connection sends [stats] open loop at [probe_hz]; each probe
   is timed from when it was due, so a probe stuck behind a solve in the
   daemon's single select loop counts the whole wait.  After the timed
   window a seeded tenth of the steps is re-verified cold in-process,
   with the default encoding options rather than the daemon's
   support-tracking ones, and the verdicts compared. *)

module MS = Minesweeper
module G = Generators
module A = Config.Ast
module W = Workload
module J = Msutil.Json
module C = Serve.Client

let probe_hz = 50.0

type inputs = {
  base : string;
  steps : string array;  (* configuration text of step i *)
  checked : bool array;  (* steps the oracle re-verifies *)
  query : string;  (* the suite's query request line *)
}

let req op fields = Printf.sprintf {|{"schema":2,"op":"%s"%s}|} op fields
let config_req op text = req op (",\"config\":" ^ J.quote text)
let stats_req = req "stats" ""

let suite (t : G.Enterprise.t) =
  let devices = List.map (fun (d : A.device) -> d.A.dev_name) t.G.Enterprise.network.A.net_devices in
  let last = List.nth devices (List.length devices - 1) in
  let strs xs = "[" ^ String.concat "," (List.map J.quote xs) ^ "]" in
  let rec pairs = function a :: b :: rest -> (a, b) :: pairs rest | _ -> [] in
  let timeout = Printf.sprintf ",\"timeout\":%g" Layers.query_timeout in
  let specs =
    List.map
      (fun (a, b) ->
        Printf.sprintf {|{"property":"acl-equivalence","label":"eq-%s-%s","devices":%s%s}|} a b
          (strs [ a; b ]) timeout)
      (pairs t.G.Enterprise.rack_role)
    @ [
        Printf.sprintf {|{"property":"reachability","label":"mgmt","dst_device":%s,"dst_prefix":%s%s}|}
          (J.quote last)
          (J.quote (Net.Prefix.to_string (t.G.Enterprise.mgmt_prefix last)))
          timeout;
        Printf.sprintf {|{"property":"blackholes","label":"blackholes","allowed":%s%s}|}
          (strs (t.G.Enterprise.edge_routers @ t.G.Enterprise.rack_role))
          timeout;
      ]
  in
  req "query" (",\"queries\":[" ^ String.concat "," specs ^ "]")

(* -- the step mix ----------------------------------------------------------- *)

let map_device name f (net : A.network) =
  let f (d : A.device) = if d.A.dev_name = name then f d else d in
  { net with A.net_devices = List.map f net.A.net_devices }

(* Toggle or move a deny entry for one host of the rack's subnet at the
   head of its host ACL: the ACL never grows past one extra entry. *)
let acl_edit rng (t : G.Enterprise.t) net =
  let racks = t.G.Enterprise.rack_role in
  let rack = List.nth racks (Random.State.int rng (List.length racks)) in
  let subnet = t.G.Enterprise.rack_subnet rack in
  let host = Net.Prefix.make (Net.Prefix.first subnet + 1 + Random.State.int rng 200) 32 in
  let ours (e : A.acl_entry) = e.A.acl_action = A.Deny && Net.Prefix.subset e.A.acl_dst subnet in
  let edit (acl : A.acl) =
    if acl.A.acl_name <> "HOSTS" then acl
    else
      let rest = match acl.A.acl_entries with e :: tl when ours e -> tl | es -> es in
      let add = List.length rest = List.length acl.A.acl_entries || Random.State.bool rng in
      {
        acl with
        A.acl_entries = (if add then { A.acl_action = A.Deny; acl_dst = host } :: rest else rest);
      }
  in
  map_device rack (fun d -> { d with A.dev_acls = List.map edit d.A.dev_acls }) net

(* A new local preference on one edge router's external import map. *)
let edge_edit rng (t : G.Enterprise.t) net =
  let edges = t.G.Enterprise.edge_routers in
  let edge = List.nth edges (Random.State.int rng (List.length edges)) in
  let pref = 100 + Random.State.int rng 100 in
  let set = function A.Set_local_pref _ -> A.Set_local_pref pref | s -> s in
  let clause (c : A.rm_clause) = { c with A.rm_sets = List.map set c.A.rm_sets } in
  let rmap (rm : A.route_map) =
    if rm.A.rm_name = "EDGE_IN" then { rm with A.rm_clauses = List.map clause rm.A.rm_clauses } else rm
  in
  map_device edge (fun d -> { d with A.dev_route_maps = List.map rmap d.A.dev_route_maps }) net

(* The step kinds repeat in a fixed pattern, one period per episode, so
   that every episode sees the same mix; the seed picks the racks,
   hosts, preferences and flap distances.  The network is fixed too
   (generator seed 7001), so the seed varies only the churn. *)
let mix =
  Array.init 20 (fun i ->
      match i with 6 | 13 | 19 -> `Flap | 3 | 10 | 16 -> `Edge | _ -> `Acl)

let episode_len (cfg : W.cfg) = if cfg.W.smoke then 5 else Array.length mix

(* Fifteen episodes of steps, each starting again from the base
   network. *)
let generate (cfg : W.cfg) =
  let routers, episodes = if cfg.W.smoke then (8, 1) else (12, 15) in
  let len = episode_len cfg in
  let t =
    G.Enterprise.make ~bulk:(Fleet.bulk routers) ~seed:7001 ~routers
      ~inject:G.Enterprise.no_bugs ()
  in
  let rng = Random.State.make [| cfg.W.seed; 17 |] in
  let episode _ =
    let history = Array.make (len + 1) t.G.Enterprise.network in
    for i = 1 to len do
      let prev = history.(i - 1) in
      history.(i) <-
        (match mix.(i mod Array.length mix) with
         | `Acl -> acl_edit rng t prev
         | `Flap -> history.(max 0 (i - 2 - Random.State.int rng 12))
         | `Edge -> edge_edit rng t prev)
    done;
    Array.sub history 1 len
  in
  let steps = Array.concat (List.init episodes episode) in
  {
    base = Config.Printer.network_to_string t.G.Enterprise.network;
    steps = Array.map Config.Printer.network_to_string steps;
    checked = Array.init (Array.length steps) (fun i -> i = 0 || Random.State.float rng 1.0 < 0.1);
    query = suite t;
  }

(* -- talking to the daemon -------------------------------------------------- *)

let ok v = Option.bind (J.member "ok" v) J.get_bool = Some true

let verdicts v =
  match Option.bind (J.member "reports" v) J.get_list with
  | None -> None
  | Some rs ->
    Some
      (List.map
         (fun r ->
           ( Option.value ~default:"?" (Option.bind (J.member "label" r) J.get_string),
             Option.value ~default:"?" (Option.bind (J.member "verdict" r) J.get_string) ))
         rs)

let show vs = String.concat "; " (List.map (fun (label, v) -> label ^ "=" ^ v) vs)

let int_field v k = float_of_int (Option.value ~default:0 (Option.bind (J.member k v) J.get_int))

type daemon = { pid : int; socket : string; conn : C.conn }

let spawn_count = ref 0

(* Daemons not yet stopped: killed at exit, so an interrupted run
   leaves none behind. *)
let live = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun (pid, socket) ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
          try Sys.remove socket with Sys_error _ -> ())
        !live)

let daemon_flag = "--serve-daemon"

(* The daemon process: [run.exe --serve-daemon SOCKET]. *)
let daemon_main socket = Serve.run (Serve.create ~jobs:1 MS.Options.default) ~socket

(* Start the daemon on a socket under [_bench/] (relative, so the path
   stays short) and connect to it.  The daemon is this executable
   started afresh rather than a bare fork, so its memory peak is its
   own and not the benchmark's generated inputs. *)
let spawn () =
  incr spawn_count;
  let socket = W.scratch (Printf.sprintf "serve-%d-%d.sock" (Unix.getpid ()) !spawn_count) in
  let pid =
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; daemon_flag; socket |]
      Unix.stdin Unix.stderr Unix.stderr
  in
  live := (pid, socket) :: !live;
  (* Poll every 2 ms, for up to 10 s, until the daemon listens; the wait
     is part of set-up.  The probing socket is closed on every failed
     attempt ([Client.connect] would leak it). *)
  let rec listening k =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX socket) with
    | () -> Unix.close fd
    | exception (Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) as e) ->
      Unix.close fd;
      if k = 0 then raise e;
      Unix.sleepf 0.002;
      listening (k - 1)
  in
  match
    listening 5000;
    C.connect socket
  with
  | conn -> { pid; socket; conn }
  | exception e ->
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] pid);
    live := List.filter (fun (p, _) -> p <> pid) !live;
    raise e

(* Ask the daemon to shut down and wait for it; kill it if it has not
   exited within five seconds. *)
let stop d =
  (try ignore (C.request d.conn (req "shutdown" "")) with _ -> ());
  C.close d.conn;
  let rec reap k =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when k > 0 ->
      Unix.sleepf 0.01;
      reap (k - 1)
    | 0, _ ->
      (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] d.pid)
    | _ -> ()
  in
  reap 500;
  live := List.filter (fun (p, _) -> p <> d.pid) !live;
  if Sys.file_exists d.socket then Sys.remove d.socket

(* Run [f] against a fresh daemon; [f] also gets the time the daemon
   was started, where set-up begins. *)
let with_daemon f =
  let t0 = W.now () in
  let d = spawn () in
  Fun.protect ~finally:(fun () -> stop d) (fun () -> f d t0)

(* A request on the main connection; [None] on an error response or a
   broken connection. *)
let ask tr name d line =
  match Trace.span tr name (fun () -> C.request d.conn line) with
  | v when ok v -> Some v
  | _ -> None
  | exception (Failure _ | Unix.Unix_error _) -> None

(* -- the stats probe -------------------------------------------------------- *)

type probes = { mutable lat_ms : float list; mutable lag_ms : float; mutable bad : int }

(* The open-loop probe: a [stats] request is sent whenever one falls
   due, without waiting for earlier answers (the daemon answers one
   connection's requests in order, so answers match due times first in,
   first out).  Once [stop_flag] is set no more are sent and the
   outstanding answers are drained; any still missing after five seconds
   count as failed. *)
let probe socket stop_flag =
  let p = { lat_ms = []; lag_ms = 0.0; bad = 0 } in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  let line = stats_req ^ "\n" in
  let pending = Queue.create () and buf = Buffer.create 4096 and tmp = Bytes.create 4096 in
  let answered () =
    let s = Buffer.contents buf in
    match String.rindex_opt s '\n' with
    | None -> ()
    | Some last ->
      Buffer.clear buf;
      Buffer.add_string buf (String.sub s (last + 1) (String.length s - last - 1));
      List.iter
        (fun l ->
          let ms = (W.now () -. Queue.pop pending) *. 1000.0 in
          match J.parse l with
          | Ok v when ok v -> p.lat_ms <- ms :: p.lat_ms
          | _ -> p.bad <- p.bad + 1)
        (String.split_on_char '\n' (String.sub s 0 last))
  in
  let t0 = W.now () in
  let drain_until = ref infinity in
  let rec go k =
    let stopping = Atomic.get stop_flag in
    if stopping && !drain_until = infinity then drain_until := W.now () +. 5.0;
    if not (stopping && Queue.is_empty pending) then begin
      let due = t0 +. (float_of_int k /. probe_hz) in
      let timeout = if stopping then !drain_until -. W.now () else due -. W.now () in
      match Unix.select [ fd ] [] [] (Float.max 0.0 timeout) with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go k
      | _ :: _, _, _ -> (
        match Unix.read fd tmp 0 (Bytes.length tmp) with
        | 0 -> p.bad <- p.bad + Queue.length pending
        | n ->
          Buffer.add_subbytes buf tmp 0 n;
          answered ();
          go k)
      | [], _, _ when not stopping ->
        p.lag_ms <- Float.max p.lag_ms ((W.now () -. due) *. 1000.0);
        ignore (Unix.write_substring fd line 0 (String.length line));
        Queue.push due pending;
        go (k + 1)
      | [], _, _ -> if W.now () >= !drain_until then p.bad <- p.bad + Queue.length pending else go k
    end
  in
  Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> go 0);
  p

let with_probe d f =
  let stop_flag = Atomic.make false in
  let result = ref None in
  let th = Thread.create (fun () -> result := Some (probe d.socket stop_flag)) () in
  let r = Fun.protect ~finally:(fun () -> Atomic.set stop_flag true; Thread.join th) f in
  (r, Option.value !result ~default:{ lat_ms = []; lag_ms = 0.0; bad = 1 })

(* -- the oracle: cold in-process re-verification ----------------------------- *)

(* The suite's verdicts on step configuration [k], verified cold
   in-process. *)
let cold_verdicts tr inp specs k =
  let net = Layers.parse tr inp.steps.(k) in
  let enc = Layers.encode tr net MS.Options.default in
  let s = Layers.session tr enc in
  List.concat_map
    (fun spec ->
      match MS.Verify.Protocol.queries_of_spec enc spec with
      | Ok qs ->
        List.map
          (fun q ->
            let r = Layers.run_one tr s q in
            let module R = MS.Verify.Report in
            (r.R.label, R.verdict_name r.R.verdict))
          qs
      | Error e -> failwith e)
    specs

(* Each checked configuration is verified cold once, however many times
   the window cycled back to it; every daemon answer for it is compared
   with those verdicts. *)
let oracle tr (tl : W.tally) cfg inp (answers : (int * (string * string) list) list) =
  let specs =
    match MS.Verify.Protocol.parse_request inp.query with
    | Ok (MS.Verify.Protocol.Query { specs; _ }) -> specs
    | _ -> failwith "serve-churn: the suite request does not parse"
  in
  let cold = Hashtbl.create 32 in
  let verdicts_of k =
    match Hashtbl.find_opt cold k with
    | Some want -> want
    | None ->
      let want = cold_verdicts tr inp specs k in
      Hashtbl.replace cold k want;
      want
  in
  List.iter
    (fun (i, got) ->
      (* oracle requests count down from -2, clear of the window's steps *)
      Trace.request tr (-2 - i) (fun () ->
          let what = Printf.sprintf "serve-churn seed %d step %d" cfg.W.seed i in
          match verdicts_of (i mod Array.length inp.steps) with
          | exception e ->
            W.refute tl "%s: cold re-verification raised %s" what (Printexc.to_string e)
          | want ->
            if List.sort compare want <> List.sort compare got then
              W.refute tl "%s: daemon answered [%s], cold re-verification [%s]" what (show got)
                (show want)))
    answers

(* -- passes ------------------------------------------------------------------ *)

(* What one episode measured beyond the tallies. *)
type episode = {
  setup_s : float;  (* start the daemon, connect, load *)
  probes : probes;
  stats : J.value option;  (* the daemon's counters after the steps *)
  diff_ms : float list;
  query_ms : float list;
  steps_s : float;  (* wall time of the steps *)
  rss_mb : float;  (* the daemon's peak *)
  reports : int;  (* verdicts the daemon returned to the steps *)
  answers : (int * (string * string) list) list;  (* checked steps' verdicts *)
}

(* Set-up is starting a daemon and loading the base configuration; it
   returns the seconds since the start began. *)
let load tr tl cfg d t0 inp =
  if ask tr "serve.load" d (config_req "load" inp.base) = None then
    W.fail tl "serve-churn seed %d: load failed" cfg.W.seed;
  W.now () -. t0

(* The cold query right after a load must verify the clean base
   network. *)
let cold_query tr tl cfg d inp =
  let t0 = W.now () in
  let got = Option.bind (ask tr "serve.query" d inp.query) verdicts in
  let ms = (W.now () -. t0) *. 1000.0 in
  let ok =
    match got with
    | Some vs -> vs <> [] && List.for_all (fun (_, v) -> v = "verified") vs
    | None -> false
  in
  if not ok then
    Printf.eprintf "benchmark: serve-churn seed %d: cold query on the base network failed\n%!"
      cfg.W.seed;
  W.record tl ~ok ~ms

(* The [episode_len] steps from [first] on, on a fresh daemon after its
   set-up and cold query; the cold query is recorded in [cold], the
   steps and the probes in [tl]. *)
let episode cfg inp tr tl cold first =
  with_daemon (fun d t0 ->
      let setup_s = load tr tl cfg d t0 inp in
      cold_query tr cold cfg d inp;
      let answers = ref [] and reports = ref 0 and steps_s = ref 0.0 in
      let diff_ms = ref [] and query_ms = ref [] in
      let step i =
        let t0 = W.now () in
        Trace.request tr i (fun () ->
            let text = inp.steps.(i mod Array.length inp.steps) in
            let diffed = ask tr "serve.diff" d (config_req "diff" text) in
            let t1 = W.now () in
            diff_ms := ((t1 -. t0) *. 1000.0) :: !diff_ms;
            let got =
              match diffed with
              | None -> None
              | Some _ ->
                let v = ask tr "serve.query" d inp.query in
                query_ms := ((W.now () -. t1) *. 1000.0) :: !query_ms;
                Option.bind v verdicts
            in
            let s = W.now () -. t0 in
            steps_s := !steps_s +. s;
            let ms = s *. 1000.0 in
            match got with
            | Some vs when vs <> [] && List.for_all (fun (_, v) -> v = "verified" || v = "violated") vs ->
              reports := !reports + List.length vs;
              W.record tl ~ok:true ~ms;
              if inp.checked.(i mod Array.length inp.checked) then answers := (i, vs) :: !answers
            | Some vs ->
              W.record tl ~ok:false ~ms;
              Printf.eprintf "benchmark: serve-churn seed %d step %d: bad verdicts [%s]\n%!"
                cfg.W.seed i (show vs)
            | None ->
              W.record tl ~ok:false ~ms;
              Printf.eprintf "benchmark: serve-churn seed %d step %d: request failed\n%!" cfg.W.seed i)
      in
      let (), probes =
        with_probe d (fun () ->
            for i = first to first + episode_len cfg - 1 do
              step i
            done)
      in
      tl.W.attempted <- tl.W.attempted + List.length probes.lat_ms + probes.bad;
      tl.W.failed <- tl.W.failed + probes.bad;
      let stats = ask None "serve.stats" d stats_req in
      {
        setup_s;
        probes;
        stats;
        diff_ms = !diff_ms;
        query_ms = !query_ms;
        steps_s = !steps_s;
        rss_mb = Sample.peak_rss_mb d.pid;
        reports = !reports;
        answers = List.rev !answers;
      })

(* Whole episodes while [stop], asked at each episode's first step,
   allows; then the oracle.  The window counts steps. *)
let pass cfg inp tr stop =
  let tl = W.tally () and cold = W.tally () in
  let len = episode_len cfg in
  let w0 = W.now () in
  let rec go e acc =
    if stop (e * len) then List.rev acc else go (e + 1) (episode cfg inp tr tl cold (e * len) :: acc)
  in
  let eps = go 0 [] in
  let w = { W.w0; w1 = W.now (); n = List.length eps * len } in
  oracle tr tl cfg inp (List.concat_map (fun e -> e.answers) eps);
  W.add_cold tl cold;
  (w, (tl, eps))

let serve_layer eu et =
  let all f = List.concat_map f et in
  let lat = List.concat_map (fun e -> e.probes.lat_ms) (eu @ et) in
  let field k =
    Sample.sum (List.map (fun e -> match e.stats with Some v -> int_field v k | None -> 0.0) et)
  in
  let r = Sample.ratio in
  Layers.serve_metrics
    {
      load_ms = 1000.0 *. Sample.median (List.map (fun e -> e.setup_s) et);
      diff_ms = Sample.median (all (fun e -> e.diff_ms));
      query_ms_p50 = Sample.median (all (fun e -> e.query_ms));
      query_ms_max = Sample.quantile (all (fun e -> e.query_ms)) 1.0;
      stats_ms_p50 = Sample.median lat;
      stats_ms_p99 = Sample.quantile lat 0.99;
      probe_lag_ms_max = List.fold_left (fun m e -> Float.max m e.probes.lag_ms) 0.0 (eu @ et);
      solves = r (field "solves") (field "diffs");
      replay_ratio = r (field "delta_replays") (field "delta_replays" +. field "dropped_verdicts");
      verdict_hit_ratio = r (field "verdict_hits") (field "queries_answered");
      enc_cache_hit_ratio =
        r (field "enc_cache_hits") (field "enc_cache_hits" +. field "enc_cache_misses");
    }

let run (cfg : W.cfg) =
  let inp = generate cfg in
  let requests = Array.length inp.steps in
  match cfg.W.trace_file with
  | Some _ -> W.traced cfg ~requests ~pass:(pass cfg inp) ~serve:serve_layer
  | None ->
    (* set-ups before the window, each on a fresh daemon, the first two
       followed by the cold query; every episode adds one of each, so
       most cold samples are spread over the window rather than bunched
       before it, where one slow second would move their median *)
    let cold = W.tally () in
    let setups =
      List.init (W.reps cfg 14) (fun k ->
          with_daemon (fun d t0 ->
              let s = load None cold cfg d t0 inp in
              if k < 2 then cold_query None cold cfg d inp;
              s))
    in
    let _, (tl, eps) = pass cfg inp None (W.window cfg ~requests ~share:1.0) in
    W.add_cold tl cold;
    let sum f = Sample.sum (List.map f eps) in
    ( W.result tl
        (W.end_to_end
           ~setup_s:(Sample.median (setups @ List.map (fun e -> e.setup_s) eps))
           ~tail:0.75 tl
           ~verdicts_per_s:(sum (fun e -> float_of_int e.reports) /. sum (fun e -> e.steps_s))
           ~rss_mb:(Sample.median (List.map (fun e -> e.rss_mb) eps))),
      true )
