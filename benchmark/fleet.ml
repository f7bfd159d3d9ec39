(* fleet-audit: the §8.1 audit (Fig. 7).  Many small cold sessions over
   enterprise networks mixing OSPF, BGP, static routes and ACLs; each
   network is parsed, encoded, converted to CNF and asked three
   questions, closed loop, one client.  The oracle is the generator's
   injection labels. *)

module MS = Minesweeper
module G = Generators
module A = Config.Ast
module W = Workload

type net = {
  index : int;  (* position in the §8.1 fleet schedule *)
  text : string;
  queries : (MS.Verify.Query.t * bool) list;  (* query, violation expected *)
}

(* The fleet schedule of [Generators.Enterprise.fleet]: network [i]'s
   injected class and router count. *)
let schedule i =
  let open G.Enterprise in
  let inject =
    if i < 67 then { no_bugs with hijack = true }
    else if i < 96 then { no_bugs with acl_gap = true }
    else if i < 120 then { no_bugs with deep_drop = true }
    else if i < 136 then { no_bugs with single_homed = true }
    else no_bugs
  in
  let routers = 4 + (i * 17 mod 22) in
  let routers = if inject.acl_gap then max routers 8 else routers in
  let routers = if inject.single_homed then max routers 5 else routers in
  (* With a single core a rack is also homed to an edge router, and
     random link costs can route it around the core's bogon ACL: the
     injected deep drop is then no blackhole at all.  Ten routers give
     two cores, so the ACL always sits on a shortest path. *)
  let routers = if inject.deep_drop then max routers 10 else routers in
  (inject, routers)

let queries (t : G.Enterprise.t) =
  let q label prop = MS.Verify.Query.v ~timeout:Layers.query_timeout label prop in
  let devices = List.map (fun (d : A.device) -> d.A.dev_name) t.G.Enterprise.network.A.net_devices in
  let last = List.nth devices (List.length devices - 1) in
  let inj = t.G.Enterprise.injected in
  let mgmt =
    q "mgmt-reachability" (fun enc ->
        MS.Property.reachability enc ~sources:devices
          (MS.Property.Subnet (last, t.G.Enterprise.mgmt_prefix last)))
  in
  let allowed = t.G.Enterprise.edge_routers @ t.G.Enterprise.rack_role in
  let holes = q "no-blackholes" (fun enc -> MS.Property.no_blackholes enc ~allowed ()) in
  let equiv =
    match t.G.Enterprise.rack_role with
    | r1 :: r2 :: _ ->
      let equiv = q "acl-equivalence" (fun enc -> MS.Property.acl_equivalence enc r1 r2) in
      [ (equiv, inj.G.Enterprise.acl_gap) ]
    | _ -> []
  in
  [ (mgmt, inj.G.Enterprise.hijack); (holes, inj.G.Enterprise.deep_drop) ] @ equiv

(* Inert padding of prefix lists and ACLs: the generator's mean for the
   router count, so configuration size does not vary with the seed. *)
let bulk routers = 8 + (routers * 15)

(* Networks 0, 2, ..., 150 of the schedule with generator seeds
   1000·seed + i, in a fixed stride order from the largest network (the
   one set-up is timed on): 29/76 is close to 1/φ², so every prefix of
   the order spreads evenly over the injected classes and the network
   sizes, and a faster commit covering more of the fleet sees the same
   mix.  The seed varies link costs, external peerings and padding
   content. *)
let generate (cfg : W.cfg) =
  let indices = if cfg.W.smoke then [ 0; 70; 96; 136 ] else List.init 76 (fun k -> 2 * k) in
  let nets =
    Array.of_list
      (List.map
         (fun i ->
           let inject, routers = schedule i in
           let t =
             G.Enterprise.make ~bulk:(bulk routers) ~seed:((1000 * cfg.W.seed) + i) ~routers ~inject ()
           in
           {
             index = i;
             text = Config.Printer.network_to_string t.G.Enterprise.network;
             queries = queries t;
           })
         indices)
  in
  let n = Array.length nets in
  let largest = ref 0 in
  let routers k = snd (schedule nets.(k).index) in
  Array.iteri (fun k _ -> if routers k > routers !largest then largest := k) nets;
  Array.init n (fun k -> nets.((!largest + (29 * k)) mod n))

let set_up tr n =
  let net = Layers.parse tr n.text in
  let enc = Layers.encode tr net MS.Options.default in
  Layers.session tr enc

(* One request: one network, text to three verdicts. *)
let audit tr (tl : W.tally) seed n =
  Trace.request tr n.index (fun () ->
      let t0 = W.now () in
      match set_up tr n with
      | exception e ->
        List.iter
          (fun _ -> W.fail tl "fleet seed %d net %d: %s" seed n.index (Printexc.to_string e))
          n.queries
      | s ->
        List.iteri
          (fun k (q, violated) ->
            let t1 = W.now () in
            let r = Layers.run_one tr s q in
            let t2 = W.now () in
            let what = Printf.sprintf "fleet seed %d net %d" seed n.index in
            W.record tl ~ok:(W.verdict_ok ~what r ~violated) ~ms:((t2 -. t1) *. 1000.0);
            if k = 0 then tl.W.cold_ms <- ((t2 -. t0) *. 1000.0) :: tl.W.cold_ms)
          n.queries)

(* The peak resident set is read after 30 networks, about two thirds of
   a 27 s window. *)
let pass cfg nets tr stop =
  let tl = W.tally () in
  let w, rss_mb =
    W.loop_rss ~rss_at:30 ~stop (fun i -> audit tr tl cfg.W.seed nets.(i mod Array.length nets))
  in
  (w, (tl, rss_mb))

let run (cfg : W.cfg) =
  let nets = generate cfg in
  match cfg.W.trace_file with
  | Some _ ->
    W.traced cfg ~requests:(Array.length nets) ~pass:(pass cfg nets)
      ~serve:(fun _ _ -> Layers.no_serve)
  | None ->
    let setup =
      List.init (W.reps cfg 9) (fun _ ->
          let t0 = W.now () in
          ignore (Sys.opaque_identity (set_up None nets.(0)));
          W.now () -. t0)
    in
    let w, (tl, rss_mb) = pass cfg nets None (W.window cfg ~requests:(Array.length nets) ~share:1.0) in
    let verdicts = List.length tl.W.verdict_ms in
    ( W.result tl
        (W.end_to_end ~setup_s:(Sample.median setup) ~tail:0.9 tl
           ~verdicts_per_s:(float_of_int verdicts /. W.elapsed_s w)
           ~rss_mb),
      true )
