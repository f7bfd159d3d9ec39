(** Symbolic control-plane records (§3, Figure 3).

    A record is a bundle of terms, one per attribute.  [fresh] allocates
    SMT variables (used when an import/export policy can modify fields);
    derived records are built directly from terms and cost no variables
    (the merge optimizations of §6.2 rely on this).

    Slicing ({!Features.t}) replaces attributes that can never vary in
    the given network with shared constants. *)

module T = Smt.Term
module Sem = Config.Semantics

type t = {
  name : string;
  valid : T.t;  (** Bool *)
  plen : T.t;  (** Int: prefix length in [0, 32] *)
  prefix : T.t option;  (** Bitvec 32; present only in the naive encoding *)
  ad : T.t;  (** Int: administrative distance (constant per context) *)
  lp : T.t;  (** Int: BGP local preference *)
  metric : T.t;  (** Int: IGP cost or AS-path length *)
  med : T.t;
  rid : T.t;  (** Int: advertising-router id (constant per edge) *)
  bgp_internal : T.t;  (** Bool *)
  comms : (Net.Community.t * T.t) list;  (** Bool per in-scope community *)
}

let int_var name = T.var name Smt.Sort.Int
let bool_var name = T.var name Smt.Sort.Bool

(** A record whose variable attributes are fresh SMT variables named
    ["<name>.<field>"].  [ad], [rid] and [bgp_internal] are constants of
    the edge context and supplied by the caller. *)
let fresh (opts : Options.t) (feats : Features.t) ~name ~ad ~rid ~bgp_internal =
  {
    name;
    valid = bool_var (name ^ ".valid");
    plen = int_var (name ^ ".plen");
    prefix = (if opts.hoist_prefixes then None else Some (T.bv_var (name ^ ".prefix") ~width:32));
    ad = T.int_const ad;
    lp = (if feats.Features.any_lp then int_var (name ^ ".lp") else T.int_const Sem.default_lp);
    metric = int_var (name ^ ".metric");
    med = (if feats.Features.any_med then int_var (name ^ ".med") else T.int_const 0);
    rid = T.int_const rid;
    bgp_internal = T.bool_const bgp_internal;
    comms = List.map (fun c -> (c, bool_var (name ^ ".comm." ^ Net.Community.to_string c))) feats.comm_scope;
  }

(** A record for selection results ([best...]): every attribute
    (including [ad] and [bgp_internal]) is variable because it copies
    whichever candidate wins. *)
let fresh_best (opts : Options.t) (feats : Features.t) ~name =
  {
    name;
    valid = bool_var (name ^ ".valid");
    plen = int_var (name ^ ".plen");
    prefix = (if opts.hoist_prefixes then None else Some (T.bv_var (name ^ ".prefix") ~width:32));
    ad = int_var (name ^ ".ad");
    lp = (if feats.Features.any_lp then int_var (name ^ ".lp") else T.int_const Sem.default_lp);
    metric = int_var (name ^ ".metric");
    med = (if feats.Features.any_med then int_var (name ^ ".med") else T.int_const 0);
    rid = int_var (name ^ ".rid");
    bgp_internal =
      (if feats.Features.any_ibgp then bool_var (name ^ ".bgpInternal") else T.bool_const false);
    comms = List.map (fun c -> (c, bool_var (name ^ ".comm." ^ Net.Community.to_string c))) feats.comm_scope;
  }

(** An always-invalid record (used for empty candidate sets). *)
let invalid ~name =
  {
    name;
    valid = T.fls;
    plen = T.int_const 0;
    prefix = None;
    ad = T.int_const 255;
    lp = T.int_const Sem.default_lp;
    metric = T.int_const 0;
    med = T.int_const 0;
    rid = T.int_const 0;
    bgp_internal = T.fls;
    comms = [];
  }

(** The term a {!Config.Semantics} decision step compares. *)
let attribute (f : Sem.attribute) r =
  match f with
  | Admin_distance -> r.ad
  | Local_pref -> r.lp
  | Metric -> r.metric
  | Med -> r.med
  | Internal -> r.bgp_internal
  | Router_id -> r.rid

let comm_term r c =
  match List.find_opt (fun (c', _) -> Net.Community.equal c c') r.comms with
  | Some (_, t) -> t
  | None -> T.fls

(** Attribute-wise equality over decision-relevant fields (used for
    "best = candidate" and behavioural-equivalence checks).  Community
    bits participate only when [comms] is true. *)
let equal_fields ?(comms = true) a b =
  let comm_eqs =
    if comms then
      List.map (fun (c, t) -> T.iff t (comm_term b c)) a.comms
    else []
  in
  let prefix_eq =
    match (a.prefix, b.prefix) with
    | Some pa, Some pb -> [ T.bv_eq pa pb ]
    | None, None -> []
    | Some _, None | None, Some _ -> []
  in
  T.and_
    ([
       T.eq a.plen b.plen;
       T.eq a.ad b.ad;
       T.eq a.lp b.lp;
       T.eq a.metric b.metric;
       T.eq a.med b.med;
       T.eq a.rid b.rid;
       T.iff a.bgp_internal b.bgp_internal;
     ]
    @ prefix_eq @ comm_eqs)

(** Constraints pinning [dst]'s attributes to [src]'s (a conditional
    copy: asserted under some guard by the caller). *)
let copy_constraints ?(overrides = []) ~src ~dst () =
  let field_term field default = match List.assoc_opt field overrides with Some t -> t | None -> default in
  let base =
    [
      T.eq dst.plen (field_term `Plen src.plen);
      T.eq dst.lp (field_term `Lp src.lp);
      T.eq dst.metric (field_term `Metric src.metric);
      T.eq dst.med (field_term `Med src.med);
    ]
  in
  let prefix_eq =
    match (dst.prefix, src.prefix) with
    | Some pd, Some ps -> [ T.bv_eq pd ps ]
    | None, None -> []
    | Some _, None | None, Some _ -> []
  in
  let comm_eqs =
    List.map
      (fun (c, t) ->
        match List.assoc_opt (`Comm c) overrides with
        | Some o -> T.iff t o
        | None -> T.iff t (comm_term src c))
      dst.comms
  in
  T.and_ (base @ prefix_eq @ comm_eqs)

(** Validity side conditions: length bounds and, in the naive encoding,
    the FBM constraint tying the record's explicit prefix to the packet
    destination (a 33-way case split on the symbolic length — exactly
    the cost prefix hoisting eliminates). *)
let well_formed (pkt : Packet.t) r =
  let bounds = T.and_ [ T.geq r.plen (T.int_const 0); T.leq r.plen (T.int_const 32) ] in
  match r.prefix with
  | None -> T.implies r.valid bounds
  | Some prefix ->
    let fbm =
      T.or_
        (List.init 33 (fun len ->
             let mask = T.bv_const ~width:32 (Packet.mask_of_len len) in
             T.and_
               [
                 T.eq r.plen (T.int_const len);
                 T.bv_eq (T.bv_and prefix mask) (T.bv_and pkt.Packet.dst_ip mask);
               ]))
    in
    T.implies r.valid (T.and_ [ bounds; fbm ])
