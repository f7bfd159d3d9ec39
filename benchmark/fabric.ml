(* The two fat-tree workloads of §8.2 (Fig. 8).

   fabric-full: a pods=4 fabric (20 routers) on the full encoding.  A
   request is one incremental session: parse, encode, CNF, then for
   four seeded destination ToRs all-ToR reachability, all-ToR bounded
   length (4 hops) and multipath consistency.  This is the
   search path (SAT core + difference logic): one cold query, then warm
   ones reusing learnt clauses.  Every session answers the same number
   of queries, so a faster solver cannot age its sessions further and
   every window averages several independent search histories (a pods=6
   session takes ~30 s, too long to repeat inside one run).

   fabric-quotient: a pods=18 fabric (405 routers) under symmetry
   reduction.  The text is parsed once, as set-up; each request pins
   one destination ToR, builds the quotient encoding and asks all-ToR
   reachability on a fresh solver.  Search is a few milliseconds here,
   so this stresses parsing, lint, symmetry and encoding: the contrast
   case to fabric-full.

   Every verdict is expected to be [verified]. *)

module MS = Minesweeper
module G = Generators
module W = Workload

type fabric = { text : string; tors : string list; tor_subnet : string -> Net.Prefix.t }

let fabric ~pods =
  let ft = G.Fattree.make ~pods in
  {
    text = Config.Printer.network_to_string ft.G.Fattree.network;
    tors = ft.G.Fattree.tors;
    tor_subnet = ft.G.Fattree.tor_subnet;
  }

(* A seeded permutation of [xs]. *)
let shuffle rng xs =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  Array.to_list a

let dest fab dst = MS.Property.Subnet (dst, fab.tor_subnet dst)
let others fab dst = List.filter (fun t -> t <> dst) fab.tors

(* A request's verdict: every one of these workloads expects
   [verified]. *)
let answer tl ~what ~t0 f =
  match f () with
  | r -> W.record tl ~ok:(W.verdict_ok ~what r ~violated:false) ~ms:((W.now () -. t0) *. 1000.0)
  | exception e -> W.fail tl "%s: %s" what (Printexc.to_string e)

(* -- fabric-full ------------------------------------------------------------ *)

(* The queries of one session: every destination ToR, in [order]. *)
let session_queries fab order =
  let q = MS.Verify.Query.v ~timeout:Layers.query_timeout in
  List.concat_map
    (fun dst ->
      let d = dest fab dst and sources = others fab dst in
      [
        q ("reach->" ^ dst) (fun enc -> MS.Property.reachability enc ~sources d);
        q ("length<=4->" ^ dst) (fun enc -> MS.Property.bounded_length enc ~sources d ~bound:4);
        q ("multipath->" ^ dst) (fun enc -> MS.Property.multipath_consistency enc d);
      ])
    order

let full_setup tr fab =
  let net = Layers.parse tr fab.text in
  Layers.session tr (Layers.encode tr net MS.Options.default)

(* One request: a fresh session answering its queries; the first is
   the cold verdict. *)
let full_session cfg fab tr tl i qs =
  Trace.request tr i (fun () ->
      let what = Printf.sprintf "fabric-full seed %d session %d" cfg.W.seed i in
      match full_setup tr fab with
      | exception e -> W.fail tl "%s: %s" what (Printexc.to_string e)
      | s ->
        List.iteri
          (fun k q ->
            answer tl ~what ~t0:(W.now ()) (fun () -> Layers.run_one tr s q);
            if k = 0 then tl.W.cold_ms <- List.hd tl.W.verdict_ms :: tl.W.cold_ms)
          qs)

(* The peak resident set is read after 20 sessions, about half a 27 s
   window. *)
let full_pass cfg fab sessions tr stop =
  let tl = W.tally () in
  let w, rss_mb =
    W.loop_rss ~rss_at:20 ~stop (fun i ->
        full_session cfg fab tr tl i sessions.(i mod Array.length sessions))
  in
  (w, (tl, rss_mb))

let run_full (cfg : W.cfg) =
  let fab = fabric ~pods:(if cfg.W.smoke then 2 else 4) in
  let rng = Random.State.make [| cfg.W.seed; 4 |] in
  let sessions =
    Array.init
      (if cfg.W.smoke then 1 else 80)
      (fun _ -> session_queries fab (List.filteri (fun i _ -> i < 4) (shuffle rng fab.tors)))
  in
  let requests = Array.length sessions in
  match cfg.W.trace_file with
  | Some _ ->
    W.traced cfg ~requests ~pass:(full_pass cfg fab sessions) ~serve:(fun _ _ -> Layers.no_serve)
  | None ->
    let setup =
      List.init (W.reps cfg 15) (fun _ ->
          let t0 = W.now () in
          ignore (Sys.opaque_identity (full_setup None fab));
          W.now () -. t0)
    in
    let w, (tl, rss_mb) = full_pass cfg fab sessions None (W.window cfg ~requests ~share:1.0) in
    ( W.result tl
        (W.end_to_end ~setup_s:(Sample.median setup) ~tail:0.9 tl
           ~verdicts_per_s:(float_of_int (List.length tl.W.verdict_ms) /. W.elapsed_s w)
           ~rss_mb),
      true )

(* -- fabric-quotient -------------------------------------------------------- *)

let quotient_opts = MS.Options.with_symmetry MS.Options.default

let quotient_verdict cfg fab order tr tl net i =
  let dst = order.(i mod Array.length order) in
  let t0 = W.now () in
  Trace.request tr i (fun () ->
      match Layers.encode tr ~pins:[ dst ] net quotient_opts with
      | exception e -> W.fail tl "fabric-quotient seed %d %s: %s" cfg.W.seed dst (Printexc.to_string e)
      | enc ->
        let sources = MS.Encode.project_devices enc (others fab dst) in
        let q =
          MS.Verify.Query.v ~timeout:Layers.query_timeout ("reach->" ^ dst) (fun enc ->
              MS.Property.reachability enc ~sources (dest fab dst))
        in
        answer tl ~what:(Printf.sprintf "fabric-quotient seed %d" cfg.W.seed) ~t0 (fun () ->
            Layers.run_query tr enc q))

(* The peak resident set is read after 50 verdicts, about half a 27 s
   window. *)
let quotient_pass cfg fab order tr net stop =
  let tl = W.tally () in
  let w, rss_mb = W.loop_rss ~rss_at:50 ~stop (quotient_verdict cfg fab order tr tl net) in
  (w, (tl, rss_mb))

let run_quotient (cfg : W.cfg) =
  let fab = fabric ~pods:(if cfg.W.smoke then 6 else 18) in
  let dests = if cfg.W.smoke then 4 else 100 in
  let rng = Random.State.make [| cfg.W.seed; 18 |] in
  let order = Array.of_list (List.filteri (fun i _ -> i < dests) (shuffle rng fab.tors)) in
  let requests = Array.length order in
  match cfg.W.trace_file with
  | Some _ ->
    W.traced cfg ~requests
      ~pass:(fun tr stop -> quotient_pass cfg fab order tr (Layers.parse tr fab.text) stop)
      ~serve:(fun _ _ -> Layers.no_serve)
  | None ->
    (* each set-up is followed by its first, cold, verdict *)
    let cold = W.tally () in
    let reps =
      List.init (W.reps cfg 5) (fun k ->
          let t0 = W.now () in
          let net = Layers.parse None fab.text in
          let setup = W.now () -. t0 in
          quotient_verdict cfg fab order None cold net k;
          (setup, net))
    in
    let net = snd (List.nth reps (List.length reps - 1)) in
    let w, (tl, rss_mb) =
      quotient_pass cfg fab order None net (W.window cfg ~requests ~share:1.0)
    in
    W.add_cold tl cold;
    ( W.result tl
        (W.end_to_end ~setup_s:(Sample.median (List.map fst reps)) ~tail:0.85 tl
           ~verdicts_per_s:(float_of_int w.W.n /. W.elapsed_s w)
           ~rss_mb),
      true )
