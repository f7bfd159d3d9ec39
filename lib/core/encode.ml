module T = Smt.Term
module A = Config.Ast
module Sem = Config.Semantics
module Prefix = Net.Prefix
module Ipv4 = Net.Ipv4

(* Forwarding behaviour attached to a candidate record. *)
type hop_spec =
  | Fixed of Nexthop.t
  | Inherit of A.protocol
      (* redistributed route: forwards wherever the source protocol does *)
  | Via_copy of string
      (* iBGP-learned route: forwards per the IGP copy keyed by peer IP *)

type candidate = { rec_ : Sym_record.t; hop : hop_spec; proto : A.protocol }

(* The passes that emit a device's assertions, in emission order.  A
   rebuild copies each pass's output for every device it does not
   re-encode. *)
type pass = Candidates | Selection | Forwarding | Reachability

let pass_index = function Candidates -> 0 | Selection -> 1 | Forwarding -> 2 | Reachability -> 3

(* Everything the encoding holds for one device.  Once [build_general]
   has run every pass over it, nothing mutates the record again, so a
   rebuild that keeps the device shares the record itself. *)
type device_enc = {
  dev : A.device;
  mutable cand_bgp : candidate list;
  mutable cand_ospf : candidate list;
  mutable cand_direct : candidate list;
  best_bgp : Sym_record.t option;
  best_ospf : Sym_record.t option;
  best_overall : Sym_record.t;
  mutable env : (string * Sym_record.t) list;  (* external peer -> raw announcement *)
  mutable import_ext : (string * Sym_record.t) list;  (* external peer -> after import *)
  mutable import_int : (string * Sym_record.t) list;  (* internal peer -> after import *)
  mutable export_ext : (string * Sym_record.t) list;  (* external peer -> as exported *)
  mutable fwd : (Nexthop.t * (T.t * T.t)) list;  (* hop -> (controlfwd, datafwd) *)
  emitted : (string option * T.t) list array;
      (* per pass, the assertions it emitted for this device, newest
         first *)
}

type t = {
  net : A.network;
  (* [A.find_device net] and [A.device_of_ip net], indexed once per
     encoding *)
  device_named : string -> A.device option;
  owner_of : Ipv4.t -> A.device option;
  opts : Options.t;
  feats : Features.t;
  pkt : Packet.t;
  suffix : string;
  igp_only : bool;
  (* how [build] was called, for [rebuild] *)
  base_suffix : string;
  namespace : string option;
  pins : string list;
  (* assertions carry their provenance: [Some d] for constraints
     generated while encoding device [d]'s configuration, [None] for
     shared structure (packet well-formedness, the failure-count
     cardinality bound).  The serve daemon's delta re-verification
     guards each device's slice behind an assumption literal and reads
     verdict support off the final-conflict core; see [scope]. *)
  mutable asserts : (string option * T.t) list;
  mutable scope : string option;
  mutable unscoped : (string option * T.t) list;
      (* [asserts] once the network-wide assertions are emitted, before
         any iBGP copy or device pass *)
  mutable kept : string -> bool;
      (* devices whose record and assertions were taken over from the
         encoding this one was rebuilt from; none for a plain build *)
  dev_enc : (string, device_enc) Hashtbl.t;
  failed_tbl : (string * string, T.t) Hashtbl.t;
  ext_peers : (string, (string * Ipv4.t) list) Hashtbl.t;
  copies : (string, t * (string, T.t) Hashtbl.t) Hashtbl.t;
  (* symmetry-quotient bookkeeping, filled by [build] when
     [opts.symmetry] produced a reduction: representative -> full
     concrete class (size >= 2 only), and collapsed member ->
     representative.  Both empty for a full encoding. *)
  mutable sym_classes : (string * string list) list;
  mutable sym_rep : (string * string) list;
}

let network t = t.net
let options t = t.opts
let packet t = t.pkt
let assertions t = List.rev_map snd t.asserts
let tagged_assertions t = List.rev t.asserts
let devices t = List.map (fun (d : A.device) -> d.A.dev_name) t.net.A.net_devices
let encoded t = List.filter (fun d -> not (t.kept d)) (devices t)
let emit t term = t.asserts <- (t.scope, term) :: t.asserts

(* Run [f] with assertion provenance attributed to device [d]. *)
let in_scope t d f =
  let saved = t.scope in
  t.scope <- Some d;
  let r = f () in
  t.scope <- saved;
  r

(* Pass [pass] over device [d]: run [f] under [d]'s scope and record
   what it emitted, or, for a device kept from the previous encoding,
   emit that encoding's output of the pass again. *)
let run_pass t pass d f =
  let enc = Hashtbl.find t.dev_enc d in
  let i = pass_index pass in
  if t.kept d then t.asserts <- enc.emitted.(i) @ t.asserts
  else begin
    let before = t.asserts in
    in_scope t d f;
    let rec since = function l when l == before -> [] | x :: rest -> x :: since rest | [] -> [] in
    enc.emitted.(i) <- since t.asserts
  end

let canonical a b = if a <= b then (a, b) else (b, a)

let failed t a b =
  match Hashtbl.find_opt t.failed_tbl (canonical a b) with Some v -> v | None -> T.fls

let failed_links t = Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.failed_tbl []

let best_overall t d = (Hashtbl.find t.dev_enc d).best_overall
let best_bgp t d = (Hashtbl.find t.dev_enc d).best_bgp
let best_ospf t d = (Hashtbl.find t.dev_enc d).best_ospf

let external_peers t d = match Hashtbl.find_opt t.ext_peers d with Some l -> l | None -> []
let env_record t d p = List.assoc p (Hashtbl.find t.dev_enc d).env
let import_from_external t d p = List.assoc p (Hashtbl.find t.dev_enc d).import_ext

let internal_imports t d =
  List.sort (fun (a, _) (b, _) -> compare a b) (Hashtbl.find t.dev_enc d).import_int

let export_to_external t d p = List.assoc p (Hashtbl.find t.dev_enc d).export_ext

let internal_neighbors t d =
  List.sort_uniq compare
    (List.map (fun (_, p, _) -> p) (Net.Topology.neighbors t.net.A.net_topology d))

let subnets t d =
  match t.device_named d with Some dev -> A.connected_prefixes dev | None -> []

let hops t d =
  let ext = List.map (fun (p, _) -> Nexthop.To_external p) (external_peers t d) in
  let ints = List.map (fun n -> Nexthop.To_device n) (internal_neighbors t d) in
  (* static routes can point at external peers that are not BGP sessions *)
  let static_ext =
    match t.device_named d with
    | None -> []
    | Some dev ->
      List.filter_map
        (fun (s : A.static_route) ->
          match s.A.st_next_hop with
          | Some hopip when t.owner_of hopip = None ->
            if List.exists (fun p -> Prefix.contains p hopip) (A.connected_prefixes dev) then
              Some (Nexthop.To_external ("peer:" ^ Ipv4.to_string hopip))
            else None
          | Some _ | None -> None)
        dev.A.dev_statics
  in
  Nexthop.To_deliver :: Nexthop.To_drop
  :: List.sort_uniq Nexthop.compare (ints @ ext @ static_ext)

let fwd_vars t d h =
  match Hashtbl.find_opt t.dev_enc d with
  | Some enc -> List.assoc_opt h enc.fwd
  | None -> None

let controlfwd t d h = match fwd_vars t d h with Some (cf, _) -> cf | None -> T.fls
let datafwd t d h = match fwd_vars t d h with Some (_, df) -> df | None -> T.fls

(* -- record construction helpers --------------------------------------------------- *)

let all_false_comms (feats : Features.t) = List.map (fun c -> (c, T.fls)) feats.Features.comm_scope

let derived ~name ~valid ~plen ~prefix ~ad ~lp ~metric ~med ~bgp_internal ~comms : Sym_record.t =
  {
    Sym_record.name;
    valid;
    plen;
    prefix;
    ad;
    lp;
    metric;
    med;
    rid = T.int_const 0;
    bgp_internal;
    comms;
  }

let const_prefix_term t (p : Prefix.t) =
  if t.opts.Options.hoist_prefixes then None
  else Some (T.bv_const ~width:32 (Prefix.network p))

(* A record entering a protocol here with the shared start attributes
   [a]: validity and prefix come from the source. *)
let entry_record t ~name ~valid ~plen ~prefix (a : Sem.attributes) =
  derived ~name ~valid ~plen ~prefix ~ad:(T.int_const a.Sem.ad) ~lp:(T.int_const a.Sem.lp)
    ~metric:(T.int_const a.Sem.metric) ~med:(T.int_const a.Sem.med) ~bgp_internal:T.fls
    ~comms:(all_false_comms t.feats)

(* A record representing a prefix originated into [proto] here. *)
let origin_record t ~name ~(p : Prefix.t) proto =
  entry_record t ~name
    ~valid:(Packet.dst_in_prefix t.pkt p)
    ~plen:(T.int_const (Prefix.length p))
    ~prefix:(const_prefix_term t p) (Sem.originated proto)

(* -- BGP session discovery ------------------------------------------------------------ *)

type session = {
  s_dev : A.device;
  s_nbr : A.bgp_neighbor;
  s_peer : [ `Internal of string * bool | `External of string ];
}

let bgp_sessions t (dev : A.device) =
  match dev.A.dev_bgp with
  | None -> []
  | Some bgp ->
    List.map
      (fun (n : A.bgp_neighbor) ->
        match t.owner_of n.A.nbr_ip with
        | Some d2 when d2.A.dev_name <> dev.A.dev_name ->
          let ibgp =
            match d2.A.dev_bgp with Some b2 -> b2.A.bgp_asn = bgp.A.bgp_asn | None -> false
          in
          { s_dev = dev; s_nbr = n; s_peer = `Internal (d2.A.dev_name, ibgp) }
        | Some _ | None ->
          { s_dev = dev; s_nbr = n; s_peer = `External ("peer:" ^ Ipv4.to_string n.A.nbr_ip) })
      bgp.A.bgp_neighbors

(* The out-map [sender] applies when exporting toward internal [receiver]. *)
let out_map_toward t (sender : A.device) (receiver : string) =
  List.find_map
    (fun s ->
      match s.s_peer with
      | `Internal (name, _) when name = receiver -> Some s.s_nbr.A.nbr_rm_out
      | `Internal _ | `External _ -> None)
    (bgp_sessions t sender)
  |> Option.value ~default:None

(* ==================== main construction ==================== *)

(* Every encoding instance gets a unique name-space: term variables are
   hash-consed by name across the process, so two live encodings of the
   same network (e.g. with different options) must not share variable
   names.  The terms themselves are held weakly: dropping an encoding
   and every solver that blasted it lets the GC reclaim its terms.

   A caller-given name-space replaces the counter: inside it every name
   is a function of the configuration alone, the iBGP copies' included,
   so rebuilding a network yields the very same hash-consed terms for
   every device whose slice did not change. *)
let encoding_counter = ref 0

(* [prev]: the encoding to take every [kept] device over from (see
   [rebuild]).  The device passes below either encode a device or copy
   it, so a rebuild and a build share this one code path. *)
let rec build_general (net : A.network) (opts : Options.t) ~igp_only ~suffix ~namespace ~pins
    ~dst_const ~shared_failed ~prev : t =
  let base_suffix = suffix in
  let suffix =
    match namespace with
    | Some ns -> Printf.sprintf "%s#%s" suffix ns
    | None ->
      incr encoding_counter;
      Printf.sprintf "%s#%d" suffix !encoding_counter
  in
  let feats = Features.scan net ~slice:opts.Options.slice_unused in
  let pkt = Packet.create opts ~suffix in
  let t =
    {
      net;
      device_named = A.device_index net;
      owner_of = A.address_index net;
      opts;
      feats;
      pkt;
      suffix;
      igp_only;
      base_suffix;
      namespace;
      pins;
      asserts = [];
      scope = None;
      unscoped = [];
      kept = (fun _ -> false);
      dev_enc = Hashtbl.create 64;
      failed_tbl = (match shared_failed with Some tbl -> tbl | None -> Hashtbl.create 64);
      ext_peers = Hashtbl.create 16;
      copies = Hashtbl.create 4;
      sym_classes = [];
      sym_rep = [];
    }
  in
  emit t (Packet.well_formed pkt);
  (match dst_const with Some ip -> emit t (Packet.dst_eq pkt ip) | None -> ());
  (* external peers table *)
  List.iter
    (fun (dev : A.device) ->
      let peers =
        List.filter_map
          (fun s ->
            match s.s_peer with
            | `External name -> Some (name, s.s_nbr.A.nbr_ip)
            | `Internal _ -> None)
          (bgp_sessions t dev)
      in
      Hashtbl.replace t.ext_peers dev.A.dev_name peers)
    net.A.net_devices;
  (* failure variables, allocated once by the outermost encoding *)
  (match (shared_failed, opts.Options.max_failures) with
   | None, Some k ->
     let vars = ref [] in
     let add_failure_var key =
       if not (Hashtbl.mem t.failed_tbl key) then begin
         let v = T.var (Printf.sprintf "failed.%s--%s" (fst key) (snd key)) Smt.Sort.Bool in
         Hashtbl.replace t.failed_tbl key v;
         vars := v :: !vars
       end
     in
     List.iter
       (fun (l : Net.Topology.link) ->
         add_failure_var (canonical l.Net.Topology.a.device l.Net.Topology.b.device))
       (Net.Topology.links net.A.net_topology);
     if not opts.Options.fail_internal_only then
       List.iter
         (fun (dev : A.device) ->
           List.iter
             (fun (peer, _) -> add_failure_var (canonical dev.A.dev_name peer))
             (external_peers t dev.A.dev_name))
         net.A.net_devices;
     if !vars <> [] then emit t (T.at_most k !vars)
   | (Some _ | None), _ -> ());
  t.unscoped <- t.asserts;
  (* the previous encoding's devices are reusable only under the same
     network-wide assertions *)
  let prev =
    match prev with
    | Some (p, kept)
      when List.equal (fun (_, a) (_, b) -> a == b) t.unscoped p.unscoped ->
      t.kept <- kept;
      Some p
    | Some _ | None -> None
  in
  (* iBGP copies (§4): one IGP-only encoding per distinct peering address *)
  if (not igp_only) && t.feats.Features.any_ibgp then
    List.iter
      (fun (dev : A.device) ->
        List.iter
          (fun s ->
            match s.s_peer with
            | `Internal (_, true) ->
              let key = Ipv4.to_string s.s_nbr.A.nbr_ip in
              if not (Hashtbl.mem t.copies key) then begin
                let prev_copy =
                  Option.bind prev (fun p ->
                      Option.map (fun (c, _) -> (c, t.kept)) (Hashtbl.find_opt p.copies key))
                in
                let copy =
                  build_general net
                    { opts with Options.max_failures = None }
                    ~igp_only:true ~suffix:(suffix ^ "~" ^ key)
                    ~namespace ~pins
                    ~dst_const:(Some s.s_nbr.A.nbr_ip) ~shared_failed:(Some t.failed_tbl)
                    ~prev:prev_copy
                in
                let reach = reach_to_ip copy s.s_nbr.A.nbr_ip in
                t.asserts <- copy.asserts @ t.asserts;
                Hashtbl.replace t.copies key (copy, reach)
              end
            | `Internal (_, false) | `External _ -> ())
          (bgp_sessions t dev))
      net.A.net_devices;
  (* best records *)
  List.iter
    (fun (dev : A.device) ->
      let d = dev.A.dev_name in
      let name field = Printf.sprintf "%s%s.%s" d suffix field in
      let enc =
        match prev with
        | Some p when t.kept d -> Hashtbl.find p.dev_enc d
        | Some _ | None ->
          {
            dev;
            cand_bgp = [];
            cand_ospf = [];
            cand_direct = [];
            best_bgp =
              (if dev.A.dev_bgp <> None && not igp_only then
                 Some (Sym_record.fresh_best opts t.feats ~name:(name "bestBGP"))
               else None);
            best_ospf =
              (if dev.A.dev_ospf <> None then
                 Some (Sym_record.fresh_best opts t.feats ~name:(name "bestOSPF"))
               else None);
            best_overall = Sym_record.fresh_best opts t.feats ~name:(name "best");
            env = [];
            import_ext = [];
            import_int = [];
            export_ext = [];
            fwd = [];
            emitted = Array.make 4 [];
          }
      in
      Hashtbl.replace t.dev_enc d enc)
    net.A.net_devices;
  let each_device pass f =
    List.iter (fun (dev : A.device) -> run_pass t pass dev.A.dev_name (fun () -> f t dev))
      net.A.net_devices
  in
  each_device Candidates build_device_candidates;
  each_device Selection constrain_device;
  each_device Forwarding build_forwarding;
  t

(* Reachability toward a concrete address, used for iBGP session
   viability inside copies. *)
and reach_to_ip t ip =
  let tbl = Hashtbl.create 16 in
  let owner (dev : A.device) =
    List.exists
      (fun (i : A.interface) -> match i.A.if_ip with Some a -> Ipv4.equal a ip | None -> false)
      dev.A.dev_interfaces
  in
  let attached (dev : A.device) =
    List.exists (fun p -> Prefix.contains p ip) (A.connected_prefixes dev)
  in
  List.iter
    (fun (dev : A.device) ->
      let v =
        T.var
          (Printf.sprintf "canReach%s.%s.%s" t.suffix dev.A.dev_name (Ipv4.to_string ip))
          Smt.Sort.Bool
      in
      Hashtbl.replace tbl dev.A.dev_name v)
    t.net.A.net_devices;
  List.iter
    (fun (dev : A.device) ->
      let d = dev.A.dev_name in
      let v = Hashtbl.find tbl d in
      run_pass t Reachability d (fun () ->
          if owner dev then emit t (T.iff v T.tru)
          else begin
            let base = if attached dev then [ datafwd t d Nexthop.To_deliver ] else [] in
            let steps =
              List.map
                (fun n ->
                  match Hashtbl.find_opt tbl n with
                  | Some vn -> T.and_ [ datafwd t d (Nexthop.To_device n); vn ]
                  | None -> T.fls)
                (internal_neighbors t d)
            in
            emit t (T.iff v (T.or_ (base @ steps)))
          end))
    t.net.A.net_devices;
  tbl

(* ---------------- candidates ---------------- *)

and build_device_candidates t (dev : A.device) =
  let enc = Hashtbl.find t.dev_enc dev.A.dev_name in
  let d = dev.A.dev_name in
  let nm fmt = Printf.ksprintf (fun s -> Printf.sprintf "%s%s.%s" d t.suffix s) fmt in
  let connected =
    List.filter_map
      (fun (i : A.interface) ->
        match i.A.if_prefix with
        | Some p ->
          Some
            {
              rec_ =
                origin_record t ~name:(nm "conn.%s" i.A.if_name) ~p A.Pconnected;
              hop = Fixed Nexthop.To_deliver;
              proto = A.Pconnected;
            }
        | None -> None)
      dev.A.dev_interfaces
  in
  let static =
    List.mapi
      (fun idx (s : A.static_route) ->
        let hop =
          match (s.A.st_next_hop, s.A.st_interface) with
          | None, (Some _ | None) -> Nexthop.To_drop
          | Some hopip, _ ->
            (match t.owner_of hopip with
             | Some d2 when d2.A.dev_name <> d -> Nexthop.To_device d2.A.dev_name
             | Some _ -> Nexthop.To_deliver
             | None ->
               if List.exists (fun p -> Prefix.contains p hopip) (A.connected_prefixes dev) then
                 Nexthop.To_external ("peer:" ^ Ipv4.to_string hopip)
               else Nexthop.To_drop)
        in
        let base =
          origin_record t ~name:(nm "static.%d" idx) ~p:s.A.st_prefix A.Pstatic
        in
        let valid =
          match hop with
          | Nexthop.To_device n -> T.and_ [ base.Sym_record.valid; T.not_ (failed t d n) ]
          | Nexthop.To_external p -> T.and_ [ base.Sym_record.valid; T.not_ (failed t d p) ]
          | Nexthop.To_deliver | Nexthop.To_drop -> base.Sym_record.valid
        in
        { rec_ = { base with Sym_record.valid }; hop = Fixed hop; proto = A.Pstatic })
      dev.A.dev_statics
  in
  enc.cand_direct <- connected @ static;
  (match dev.A.dev_ospf with
   | None -> ()
   | Some ocfg ->
     let own =
       List.filter_map
         (fun (i : A.interface) ->
           match i.A.if_prefix with
           | Some p ->
             Some
               {
                 rec_ =
                   origin_record t ~name:(nm "ospf.net.%s" i.A.if_name) ~p A.Pospf;
                 hop = Fixed Nexthop.To_deliver;
                 proto = A.Pospf;
               }
           | None -> None)
         (A.ospf_interfaces dev)
     in
     let imports =
       List.filter_map
         (fun (local_if, peer_name, peer_if) ->
           match t.device_named peer_name with
           | None -> None
           | Some peer ->
             let local_ok =
               List.exists (fun (i : A.interface) -> i.A.if_name = local_if) (A.ospf_interfaces dev)
             in
             let peer_ok =
               List.exists (fun (i : A.interface) -> i.A.if_name = peer_if) (A.ospf_interfaces peer)
             in
             if not (local_ok && peer_ok) then None
             else begin
               match Hashtbl.find_opt t.dev_enc peer_name with
               | None -> None
               | Some peer_enc ->
                 (match peer_enc.best_ospf with
                  | None -> None
                  | Some peer_best ->
                    let r =
                      {
                        (entry_record t
                           ~name:(nm "ospf.in.%s" peer_name)
                           ~valid:
                             (T.and_ [ peer_best.Sym_record.valid; T.not_ (failed t d peer_name) ])
                           ~plen:peer_best.Sym_record.plen ~prefix:peer_best.Sym_record.prefix
                           (Sem.originated A.Pospf))
                        with
                        Sym_record.metric =
                          T.add peer_best.Sym_record.metric
                            (T.int_const (Sem.ospf_cost dev local_if));
                      }
                    in
                    Some { rec_ = r; hop = Fixed (Nexthop.To_device peer_name); proto = A.Pospf })
             end)
         (Net.Topology.neighbors t.net.A.net_topology d)
     in
     let redists =
       List.filter_map
         (fun (rd : A.redistribute) ->
           if rd.A.rd_from = A.Pbgp && t.igp_only then None
           else redistributed_candidates t enc ~into:A.Pospf rd)
         ocfg.A.ospf_redistribute
       |> List.concat
     in
     enc.cand_ospf <- own @ imports @ redists);
  if not t.igp_only then begin
    match dev.A.dev_bgp with
    | None -> ()
    | Some bgp ->
      let originated =
        List.filter_map
          (fun p ->
            let backed =
              List.exists (fun cp -> Prefix.equal cp p) (A.connected_prefixes dev)
              || List.exists
                   (fun (s : A.static_route) -> Prefix.equal s.A.st_prefix p)
                   dev.A.dev_statics
            in
            if not backed then None
            else
              Some
                {
                  rec_ =
                    origin_record t ~name:(nm "bgp.net.%s" (Prefix.to_string p)) ~p A.Pbgp;
                  hop = Fixed Nexthop.To_deliver;
                  proto = A.Pbgp;
                })
          bgp.A.bgp_networks
      in
      let redists =
        List.filter_map (fun rd -> redistributed_candidates t enc ~into:A.Pbgp rd)
          bgp.A.bgp_redistribute
        |> List.concat
      in
      let session_cands =
        List.filter_map (fun s -> bgp_session_candidate t s) (bgp_sessions t dev)
      in
      enc.cand_bgp <- originated @ redists @ session_cands
  end

(* Redistribution from [rd.rd_from] into protocol [into].  The source is
   the source protocol's best record (OSPF/BGP) or, for connected and
   static, each direct candidate individually. *)
and redistributed_candidates t enc ~into (rd : A.redistribute) =
  let d = enc.dev.A.dev_name in
  let attrs = Sem.redistributed ~into rd in
  let mk ~name ~(src : Sym_record.t) =
    entry_record t ~name ~valid:src.Sym_record.valid ~plen:src.Sym_record.plen
      ~prefix:src.Sym_record.prefix attrs
  in
  let into_str = A.protocol_to_string into in
  match rd.A.rd_from with
  | A.Pconnected | A.Pstatic ->
    Some
      (List.filter_map
         (fun c ->
           if c.proto = rd.A.rd_from then
             Some
               {
                 rec_ =
                   mk
                     ~name:
                       (Printf.sprintf "%s%s.%s.redist.%s" d t.suffix into_str
                          c.rec_.Sym_record.name)
                     ~src:c.rec_;
                 hop = c.hop;
                 proto = into;
               }
           else None)
         enc.cand_direct)
  | A.Pospf ->
    (match enc.best_ospf with
     | None -> None
     | Some src ->
       Some
         [
           {
             rec_ = mk ~name:(Printf.sprintf "%s%s.%s.redist.ospf" d t.suffix into_str) ~src;
             hop = Inherit A.Pospf;
             proto = into;
           };
         ])
  | A.Pbgp ->
    (match enc.best_bgp with
     | None -> None
     | Some src ->
       Some
         [
           {
             rec_ = mk ~name:(Printf.sprintf "%s%s.%s.redist.bgp" d t.suffix into_str) ~src;
             hop = Inherit A.Pbgp;
             proto = into;
           };
         ])

and bgp_session_candidate t s =
  let dev = s.s_dev in
  let d = dev.A.dev_name in
  let nm fmt = Printf.ksprintf (fun x -> Printf.sprintf "%s%s.%s" d t.suffix x) fmt in
  match s.s_peer with
  | `External peer ->
    let env =
      Sym_record.fresh t.opts t.feats
        ~name:(Printf.sprintf "env%s.%s.%s" t.suffix d peer)
        ~ad:(Sem.bgp_ad ~internal:false) ~rid:0 ~bgp_internal:false
    in
    emit t (Sym_record.well_formed t.pkt env);
    emit t
      (T.implies env.Sym_record.valid
         (T.and_
            [
              T.geq env.Sym_record.metric (T.int_const 0);
              T.leq env.Sym_record.metric (T.int_const (Sem.max_path_length - 1));
              T.geq env.Sym_record.med (T.int_const 0);
              T.leq env.Sym_record.med (T.int_const 65535);
              T.eq env.Sym_record.lp (T.int_const Sem.default_lp);
            ]));
    let enc = Hashtbl.find t.dev_enc d in
    enc.env <- (peer, env) :: List.remove_assoc peer enc.env;
    let pre =
      {
        env with
        Sym_record.name = nm "bgp.pre.%s" peer;
        metric = T.add env.Sym_record.metric (T.int_const 1);
        valid = T.and_ [ env.Sym_record.valid; T.not_ (failed t d peer) ];
      }
    in
    let imported =
      apply_import t dev ~rm:s.s_nbr.A.nbr_rm_in ~src:pre ~name:(nm "bgp.in.%s" peer)
        ~ad:(Sem.bgp_ad ~internal:false) ~bgp_internal:false
    in
    enc.import_ext <- (peer, imported) :: List.remove_assoc peer enc.import_ext;
    Some { rec_ = imported; hop = Fixed (Nexthop.To_external peer); proto = A.Pbgp }
  | `Internal (peer_name, is_ibgp) ->
    (match (t.device_named peer_name, Hashtbl.find_opt t.dev_enc peer_name) with
     | Some peer_dev, Some peer_enc ->
       (match peer_enc.best_bgp with
        | None -> None
        | Some peer_best ->
          let exported =
            build_bgp_export t ~sender:peer_dev ~best:peer_best
              ~out_map:(out_map_toward t peer_dev d) ~is_ibgp
              ~name:(Printf.sprintf "%s%s.bgp.out.%s" peer_name t.suffix d)
          in
          let link_ok =
            if is_ibgp then begin
              match Hashtbl.find_opt t.copies (Ipv4.to_string s.s_nbr.A.nbr_ip) with
              | Some (_, reach) ->
                (match Hashtbl.find_opt reach d with Some v -> v | None -> T.tru)
              | None -> T.tru
            end
            else if List.mem peer_name (internal_neighbors t d) then T.not_ (failed t d peer_name)
            else
              (* eBGP is single-hop: with no physical link to the peer
                 the session never comes up, as in the simulator *)
              T.fls
          in
          let pre =
            {
              exported with
              Sym_record.name = nm "bgp.pre.%s" peer_name;
              valid = T.and_ [ exported.Sym_record.valid; link_ok ];
            }
          in
          let imported =
            apply_import t dev ~rm:s.s_nbr.A.nbr_rm_in ~src:pre
              ~name:(nm "bgp.in.%s" peer_name)
              ~ad:(Sem.bgp_ad ~internal:is_ibgp) ~bgp_internal:is_ibgp
          in
          let enc = Hashtbl.find t.dev_enc d in
          enc.import_int <- (peer_name, imported) :: List.remove_assoc peer_name enc.import_int;
          let hop =
            if is_ibgp then Via_copy (Ipv4.to_string s.s_nbr.A.nbr_ip)
            else Fixed (Nexthop.To_device peer_name)
          in
          Some { rec_ = imported; hop; proto = A.Pbgp })
     | (Some _ | None), _ -> None)

(* Import policy: a derived copy when there is no map (merge_filters),
   a fresh record plus route-map constraints otherwise. *)
and apply_import t (dev : A.device) ~rm ~(src : Sym_record.t) ~name ~ad ~bgp_internal =
  match rm with
  | None when t.opts.Options.merge_filters ->
    {
      src with
      Sym_record.name;
      ad = T.int_const ad;
      bgp_internal = T.bool_const bgp_internal;
    }
  | _ ->
    let dst = Sym_record.fresh t.opts t.feats ~name ~ad ~rid:0 ~bgp_internal in
    emit t (Sym_record.well_formed t.pkt dst);
    let rm_ast = Option.bind rm (A.find_route_map dev) in
    List.iter (emit t) (Filter.route_map_constraints dev t.pkt ~rm:rm_ast ~pass:T.tru ~src ~dst);
    dst

(* Export from a BGP process toward a peer: the shared export rule
   (re-advertisement, path increment and bound, attribute resets),
   aggregation length rewrite, and the neighbor's out-map. *)
and build_bgp_export t ~(sender : A.device) ~(best : Sym_record.t) ~out_map ~is_ibgp ~name =
  let bgp = Option.get sender.A.dev_bgp in
  let rule = Sem.export ~sender:bgp ~ibgp:is_ibgp in
  let metric = T.add best.Sym_record.metric (T.int_const rule.Sem.path_increment) in
  let reset field = function Some v -> T.int_const v | None -> field in
  let pass =
    T.and_
      [
        best.Sym_record.valid;
        (if rule.Sem.exports_internal then T.tru else T.not_ best.Sym_record.bgp_internal);
        (match rule.Sem.max_path with Some m -> T.leq metric (T.int_const m) | None -> T.tru);
      ]
  in
  (* §4 aggregation: a route covered by an announced aggregate leaves
     with the (shorter) aggregate length. *)
  let plen_term =
    match bgp.A.bgp_aggregates with
    | [] -> best.Sym_record.plen
    | aggs ->
      let v = T.var (name ^ ".plen") Smt.Sort.Int in
      let conds =
        List.map
          (fun (agg, _summary) ->
            ( agg,
              T.and_
                [
                  Packet.dst_in_prefix t.pkt agg;
                  T.gt best.Sym_record.plen (T.int_const (Prefix.length agg));
                ] ))
          aggs
      in
      let rec chain prior = function
        | [] ->
          [ T.implies (T.and_ (List.map T.not_ prior)) (T.eq v best.Sym_record.plen) ]
        | (agg, c) :: rest ->
          T.implies
            (T.and_ (c :: List.map T.not_ prior))
            (T.eq v (T.int_const (Prefix.length agg)))
          :: chain (c :: prior) rest
      in
      List.iter (emit t) (chain [] conds);
      v
  in
  let pre =
    {
      best with
      Sym_record.name = name ^ ".pre";
      valid = pass;
      plen = plen_term;
      metric;
      lp = reset best.Sym_record.lp rule.Sem.reset_lp;
      med = reset best.Sym_record.med rule.Sem.reset_med;
      bgp_internal = T.bool_const rule.Sem.internal;
    }
  in
  match out_map with
  | None when t.opts.Options.merge_filters -> pre
  | _ ->
    let dst =
      Sym_record.fresh t.opts t.feats ~name ~ad:(Sem.bgp_ad ~internal:false) ~rid:0
        ~bgp_internal:is_ibgp
    in
    emit t (Sym_record.well_formed t.pkt dst);
    let rm_ast = Option.bind out_map (A.find_route_map sender) in
    List.iter (emit t)
      (Filter.route_map_constraints sender t.pkt ~rm:rm_ast ~pass:T.tru ~src:pre ~dst);
    dst

(* ---------------- selection ---------------- *)

and constrain_device t (dev : A.device) =
  let enc = Hashtbl.find t.dev_enc dev.A.dev_name in
  let select sel best candidates =
    emit t (Sym_record.well_formed t.pkt best);
    List.iter (emit t)
      (Selection.constrain_best ~geq:(Selection.geq (Sem.decision dev sel)) ~best ~candidates)
  in
  let recs = List.map (fun c -> c.rec_) in
  Option.iter (fun best -> select (Sem.Protocol A.Pbgp) best (recs enc.cand_bgp)) enc.best_bgp;
  Option.iter (fun best -> select (Sem.Protocol A.Pospf) best (recs enc.cand_ospf)) enc.best_ospf;
  select Sem.Overall enc.best_overall
    (Option.to_list enc.best_bgp @ Option.to_list enc.best_ospf @ recs enc.cand_direct);
  (* exports to external peers, for leak/equivalence properties *)
  if not t.igp_only then begin
    match enc.best_bgp with
    | Some best ->
      List.iter
        (fun s ->
          match s.s_peer with
          | `External peer ->
            let exported =
              build_bgp_export t ~sender:dev ~best ~out_map:s.s_nbr.A.nbr_rm_out
                ~is_ibgp:false
                ~name:(Printf.sprintf "%s%s.bgp.out.%s" dev.A.dev_name t.suffix peer)
            in
            enc.export_ext <- (peer, exported) :: List.remove_assoc peer enc.export_ext
          | `Internal _ -> ())
        (bgp_sessions t dev)
    | None -> ()
  end

(* ---------------- forwarding ---------------- *)

(* Would the source protocol (at this device) forward to hop [h]?  Used
   for redistributed routes; only the source protocol's own
   (non-redistributed) candidates are considered, iBGP ones resolving
   through their copies. *)
and inherit_base t enc src_proto h =
  let own =
    List.filter (fun c -> match c.hop with Inherit _ -> false | Fixed _ | Via_copy _ -> true)
  in
  let within best cands =
    Option.fold ~none:T.fls ~some:(fun b -> fwd_within t enc b (own cands) h) best
  in
  match src_proto with
  | A.Pconnected | A.Pstatic ->
    T.or_
      (List.filter_map
         (fun c ->
           match c.hop with
           | Fixed hh when c.proto = src_proto && Nexthop.equal hh h ->
             Some c.rec_.Sym_record.valid
           | Fixed _ | Inherit _ | Via_copy _ -> None)
         enc.cand_direct)
  | A.Pospf ->
    within enc.best_ospf enc.cand_ospf
  | A.Pbgp ->
    within enc.best_bgp enc.cand_bgp

and fwd_within t enc (best : Sym_record.t) cands h =
  let d = enc.dev.A.dev_name in
  let parts =
    List.filter_map
      (fun c ->
        match c.hop with
        | Fixed hh when Nexthop.equal hh h ->
          Some (T.and_ [ c.rec_.Sym_record.valid; Sym_record.equal_fields best c.rec_ ])
        | Fixed _ -> None
        | Inherit src_proto ->
          let base = inherit_base t enc src_proto h in
          if T.equal base T.fls then None
          else
            Some
              (T.and_ [ c.rec_.Sym_record.valid; Sym_record.equal_fields best c.rec_; base ])
        | Via_copy key ->
          (match Hashtbl.find_opt t.copies key with
           | Some (copy, _) ->
             (* The copy resolves forwarding toward the iBGP peer's
                address.  "Deliver" in the copy means the peering subnet
                is directly attached - in the real network that is a hop
                to the peer device itself. *)
             let owner =
               Option.map
                 (fun (dev : A.device) -> dev.A.dev_name)
                 (t.owner_of (Ipv4.of_string key))
             in
             let base =
               match h with
               | Nexthop.To_deliver -> T.fls
               | Nexthop.To_device n when owner = Some n ->
                 T.or_ [ controlfwd copy d h; controlfwd copy d Nexthop.To_deliver ]
               | Nexthop.To_device _ | Nexthop.To_external _ | Nexthop.To_drop ->
                 controlfwd copy d h
             in
             if T.equal base T.fls then None
             else
               Some
                 (T.and_ [ c.rec_.Sym_record.valid; Sym_record.equal_fields best c.rec_; base ])
           | None -> None))
      cands
  in
  T.or_ parts

and build_forwarding t (dev : A.device) =
  let enc = Hashtbl.find t.dev_enc dev.A.dev_name in
  let d = dev.A.dev_name in
  List.iter
    (fun h ->
      let direct =
        List.filter_map
          (fun c ->
            match c.hop with
            | Fixed hh when Nexthop.equal hh h ->
              Some
                (T.and_
                   [ c.rec_.Sym_record.valid; Sym_record.equal_fields enc.best_overall c.rec_ ])
            | Fixed _ | Inherit _ | Via_copy _ -> None)
          enc.cand_direct
      in
      let proto_part best cands =
        match best with
        | None -> []
        | Some (b : Sym_record.t) ->
          let within = fwd_within t enc b cands h in
          if T.equal within T.fls then []
          else
            [
              T.and_
                [
                  b.Sym_record.valid;
                  Sym_record.equal_fields enc.best_overall b;
                  within;
                ];
            ]
      in
      let cf_term =
        T.or_ (direct @ proto_part enc.best_bgp enc.cand_bgp @ proto_part enc.best_ospf enc.cand_ospf)
      in
      let cf_var =
        T.var (Printf.sprintf "controlfwd%s.%s.%s" t.suffix d (Nexthop.to_string h)) Smt.Sort.Bool
      in
      emit t (T.iff cf_var cf_term);
      (* data plane: conjoin ACLs *)
      let acl =
        match h with
        | Nexthop.To_device n ->
          let ifaces =
            List.find_map
              (fun (local_if, peer, peer_if) -> if peer = n then Some (local_if, peer_if) else None)
              (Net.Topology.neighbors t.net.A.net_topology d)
          in
          (match ifaces with
           | None -> T.tru
           | Some (out_if, in_if) ->
             Filter.link_acl_permits t.pkt ~dev ~out_iface:(Some out_if)
               ~peer:(t.device_named n) ~in_iface:(Some in_if))
        | Nexthop.To_external peer ->
          (* out-ACL on the interface facing the peer *)
          let peer_ip =
            List.find_map
              (fun (name, ip) -> if name = peer then Some ip else None)
              (external_peers t d)
          in
          let out_if =
            match peer_ip with
            | None -> None
            | Some ip ->
              List.find_map
                (fun (i : A.interface) ->
                  match i.A.if_prefix with
                  | Some p when Prefix.contains p ip -> Some i.A.if_name
                  | Some _ | None -> None)
                dev.A.dev_interfaces
          in
          Filter.link_acl_permits t.pkt ~dev ~out_iface:out_if ~peer:None ~in_iface:None
        | Nexthop.To_deliver ->
          (* out-ACLs on the delivering (host-facing) interfaces *)
          T.and_
            (List.filter_map
               (fun (i : A.interface) ->
                 match (i.A.if_prefix, Option.bind i.A.if_acl_out (A.find_acl dev)) with
                 | Some p, Some acl ->
                   Some
                     (T.implies (Packet.dst_in_prefix t.pkt p) (Filter.acl_permits t.pkt acl))
                 | (Some _ | None), _ -> None)
               dev.A.dev_interfaces)
        | Nexthop.To_drop -> T.tru
      in
      let df_term = T.and_ [ cf_var; acl ] in
      let df =
        if t.opts.Options.merge_dataplane then df_term
        else begin
          let v =
            T.var (Printf.sprintf "datafwd%s.%s.%s" t.suffix d (Nexthop.to_string h)) Smt.Sort.Bool
          in
          emit t (T.iff v df_term);
          v
        end
      in
      enc.fwd <- (h, (cf_var, df)) :: List.remove_assoc h enc.fwd)
    (hops t d)

let sym_classes t = t.sym_classes
let representative t d = match List.assoc_opt d t.sym_rep with Some r -> r | None -> d

let project_devices t ds =
  let present = devices t in
  List.sort_uniq compare
    (List.filter (fun d -> List.mem d present) (List.map (representative t) ds))

(* -- what a configuration change can touch ------------------------------------ *)

(* The internal same-ASN sessions with their literal neighbor
   addresses: the iBGP copies are keyed on these. *)
let ibgp_signature (net : A.network) =
  let owner = A.address_index net in
  List.concat_map
    (fun (d : A.device) ->
      match d.A.dev_bgp with
      | None -> []
      | Some bgp ->
        List.filter_map
          (fun (n : A.bgp_neighbor) ->
            match owner n.A.nbr_ip with
            | Some d2 when d2.A.dev_name <> d.A.dev_name -> (
              match d2.A.dev_bgp with
              | Some b2 when b2.A.bgp_asn = bgp.A.bgp_asn ->
                Some (d.A.dev_name, d2.A.dev_name, n.A.nbr_ip)
              | Some _ | None -> None)
            | Some _ | None -> None)
          bgp.A.bgp_neighbors)
    net.A.net_devices
  |> List.sort compare

(* A device's slice is a function of the name-space, the options, the
   feature scan, the topology, its own configuration, its topology
   neighbors' configurations (OSPF adjacencies, the peer's inbound ACL
   on a forwarding edge) and the configurations of the devices owning
   the addresses it references (BGP sessions, static next hops).  So
   once the network-wide inputs agree, a change can reach only the
   changed devices, their neighbors, the devices referencing an address
   a changed device owns before or after, and the devices owning such an
   address (an address held twice resolves to its first owner, which a
   changed device can displace). *)
let affected opts ~old_net (net : A.network) =
  let names (n : A.network) = List.map (fun (d : A.device) -> d.A.dev_name) n.A.net_devices in
  let topo (n : A.network) =
    (Net.Topology.devices n.A.net_topology, Net.Topology.links n.A.net_topology)
  in
  let feats n = Features.scan n ~slice:opts.Options.slice_unused in
  if
    names old_net <> names net
    || topo old_net <> topo net
    || feats old_net <> feats net
    || ibgp_signature old_net <> ibgp_signature net
  then None
  else begin
    let changed =
      List.filter_map
        (fun ((d : A.device), d') -> if d = d' then None else Some d.A.dev_name)
        (List.combine old_net.A.net_devices net.A.net_devices)
    in
    let changed_tbl = Hashtbl.create 8 in
    List.iter (fun d -> Hashtbl.replace changed_tbl d ()) changed;
    let is_changed = Hashtbl.mem changed_tbl in
    let owners = [ A.address_index old_net; A.address_index net ] in
    let owner_names ip =
      List.filter_map (fun owner -> Option.map (fun (d : A.device) -> d.A.dev_name) (owner ip)) owners
    in
    let owned_by_changed ip = List.exists is_changed (owner_names ip) in
    let refs_changed (d : A.device) =
      (match d.A.dev_bgp with
       | None -> false
       | Some bgp ->
         List.exists (fun (n : A.bgp_neighbor) -> owned_by_changed n.A.nbr_ip) bgp.A.bgp_neighbors)
      || List.exists
           (fun (s : A.static_route) ->
             match s.A.st_next_hop with Some ip -> owned_by_changed ip | None -> false)
           d.A.dev_statics
    in
    let both = old_net.A.net_devices @ net.A.net_devices in
    let neighbors =
      List.concat_map
        (fun c -> List.map (fun (_, peer, _) -> peer) (Net.Topology.neighbors net.A.net_topology c))
        changed
    in
    let address_owners =
      List.concat_map
        (fun (d : A.device) ->
          if not (is_changed d.A.dev_name) then []
          else
            List.concat_map
              (fun (i : A.interface) -> match i.A.if_ip with Some ip -> owner_names ip | None -> [])
              d.A.dev_interfaces)
        both
    in
    let referrers =
      List.filter_map (fun (d : A.device) -> if refs_changed d then Some d.A.dev_name else None) both
    in
    Some
      ( List.sort compare changed,
        List.sort_uniq compare (changed @ neighbors @ address_owners @ referrers) )
  end

(* A full encoding of [net], of its symmetry quotient when
   [opts.symmetry] finds one. *)
let encode_fresh ~suffix ~namespace ~pins net opts =
  (* Symmetry quotient: substitute the reduced network when the
     analysis finds interchangeable devices.  Disabled under
     [max_failures]: one representative link stands for a whole class
     of concrete links, so "at most k failures" would not mean the
     same thing in the quotient. *)
  let net, classes, rep =
    if opts.Options.symmetry && opts.Options.max_failures = None then
      match Analysis.Symmetry.reduce ~pins net with
      | Some r ->
        (r.Analysis.Symmetry.red_network, r.Analysis.Symmetry.red_classes,
         r.Analysis.Symmetry.red_rep)
      | None -> (net, [], [])
    else (net, [], [])
  in
  let t =
    build_general net opts ~igp_only:false ~suffix ~namespace ~pins ~dst_const:None
      ~shared_failed:None ~prev:None
  in
  t.sym_classes <- classes;
  t.sym_rep <- rep;
  t

let build ?(suffix = "") ?namespace ?(pins = []) net opts =
  if opts.Options.preflight_lint then Analysis.Lint.preflight net;
  encode_fresh ~suffix ~namespace ~pins net opts

let rebuild prev net =
  let opts = prev.opts in
  (* consistency checks cross devices: the whole network, every time *)
  if opts.Options.preflight_lint then Analysis.Lint.preflight net;
  let coupling =
    if opts.Options.symmetry || prev.namespace = None then None
    else affected opts ~old_net:prev.net net
  in
  match coupling with
  | None ->
    encode_fresh ~suffix:prev.base_suffix ~namespace:prev.namespace ~pins:prev.pins net opts
  | Some (_, coupled) ->
    let tbl = Hashtbl.create 8 in
    List.iter (fun d -> Hashtbl.replace tbl d ()) coupled;
    build_general net opts ~igp_only:false ~suffix:prev.base_suffix ~namespace:prev.namespace
      ~pins:prev.pins ~dst_const:None ~shared_failed:None
      ~prev:(Some (prev, fun d -> not (Hashtbl.mem tbl d)))

let stats t =
  let n = List.length t.asserts in
  let size = List.fold_left (fun acc (_, a) -> acc + T.size a) 0 t.asserts in
  (n, size)
