(** The Minesweeper network encoding (§3–§4, §6).

    [build net opts] translates a network's configurations into a
    conjunction of SMT constraints whose satisfying assignments are the
    stable states of the control plane, sliced with respect to one
    symbolic packet, under a fully symbolic environment (arbitrary
    external announcements, and up to [opts.max_failures] link
    failures).

    Properties (see {!Property}) are expressed over the exposed
    forwarding variables and records and conjoined with the encoding by
    {!Verify}. *)

type t

val build :
  ?suffix:string -> ?namespace:string -> ?pins:string list -> Config.Ast.network -> Options.t -> t
(** [suffix] distinguishes variable names when several encodings of the
    same network coexist in one formula (equivalence and
    fault-invariance checks).

    Without [namespace], every build draws a fresh process-wide
    name-space, so no two encodings share a variable.  With it, variable
    names (the iBGP copies' included) are a function of [namespace],
    [suffix] and the configuration alone: rebuilding a network, or a
    variant of it, in the same name-space yields physically equal
    hash-consed terms for every device slice whose constraints did not
    change — what {!Verify.Session.rebase} keys on.  A name-space must
    only ever be used with one [opts] (sorts depend on the options).

    When [opts.preflight_lint] is set (the default), the {!Analysis}
    linter runs first and Error-level findings abort the build with
    {!Analysis.Lint.Lint_errors} — a broken configuration is reported,
    not encoded.

    When [opts.symmetry] is set, the symmetry analysis
    ({!Analysis.Symmetry.reduce}) replaces the network by its quotient:
    one representative device per interchangeability class.  [pins]
    names devices that must survive as themselves — pin every device a
    property refers to by name (destination, equivalence pair), or the
    property construction fails with [Invalid_argument].  The reduction
    bails out to the full encoding on asymmetric networks and on
    feature combinations whose quotient semantics would differ (iBGP,
    statics with internal next hops, intra-class links,
    [max_failures]); [pins] is ignored when symmetry is off.
    @raise Analysis.Lint.Lint_errors on Error-level lint findings. *)

val rebuild : t -> Config.Ast.network -> t
(** [rebuild enc net] is [build ~suffix ~namespace ~pins net opts] with
    [enc]'s suffix, name-space, pins and options, but it encodes only
    the devices {!affected} names and takes every other device's record,
    table entries and tagged assertions over from [enc] (inside each
    iBGP copy too).  Its slices are physically those of the build.  It
    is a plain build when [enc] has no name-space, under
    [opts.symmetry], when {!affected} reports a network-wide change, or
    when the unscoped assertions differ (e.g. a changed external peering
    under [max_failures]).  The lint pre-flight runs on the whole of
    [net].
    @raise Analysis.Lint.Lint_errors on Error-level lint findings. *)

val affected :
  Options.t -> old_net:Config.Ast.network -> Config.Ast.network -> (string list * string list) option
(** [affected opts ~old_net net] is [None] when a network-wide input of
    the encoding differs between the two networks: the device list (in
    order), the topology, {!Features.scan}, or the iBGP sessions with
    their neighbor addresses.  Otherwise it is [Some (changed,
    coupled)]: the devices whose configuration differs, and those plus
    every device whose slice may change with them — topology neighbors,
    devices with a BGP neighbor or static next hop at an address a
    changed device owns in either network, and the owners of the changed
    devices' addresses in either network.  Both lists are sorted. *)

val encoded : t -> string list
(** The devices this encoding encoded itself: all of them for {!build},
    the affected ones for a {!rebuild} that reused the rest. *)

val network : t -> Config.Ast.network
val options : t -> Options.t
val packet : t -> Packet.t

val assertions : t -> Smt.Term.t list
(** The network semantics [N]: assert all of these. *)

val tagged_assertions : t -> (string option * Smt.Term.t) list
(** {!assertions} with provenance: [Some d] tags constraints generated
    while encoding device [d]'s configuration (its candidates, policy
    applications, route selection and forwarding — including its slice
    of any iBGP-copy encodings), [None] tags shared structure (packet
    well-formedness, the failure-cardinality bound).  A support-tracking
    {!Verify.Session} guards each device's slice behind an assumption
    literal so UNSAT verdicts report which devices their refutation
    used. *)

val devices : t -> string list

val hops : t -> string -> Nexthop.t list
(** All forwarding targets of a device in the model. *)

val controlfwd : t -> string -> Nexthop.t -> Smt.Term.t
(** Control-plane decision to forward from a device to a hop
    ([Term.fls] for hops the device does not have). *)

val datafwd : t -> string -> Nexthop.t -> Smt.Term.t
(** Like {!controlfwd} but accounting for data-plane ACLs. *)

val best_overall : t -> string -> Sym_record.t

val best_bgp : t -> string -> Sym_record.t option
val best_ospf : t -> string -> Sym_record.t option

val external_peers : t -> string -> (string * Net.Ipv4.t) list
(** [(peer_name, neighbor_ip)] of each symbolic external neighbor of a
    device. *)

val env_record : t -> string -> string -> Sym_record.t
(** [env_record t dev peer]: the peer's raw (unconstrained) announcement
    record arriving at [dev]. *)

val import_from_external : t -> string -> string -> Sym_record.t
(** The record after [dev]'s import policy on that peering. *)

val internal_imports : t -> string -> (string * Sym_record.t) list
(** [(peer_device, record)] for every internal BGP session of a device,
    sorted by peer name; used by the equivalence properties. *)

val export_to_external : t -> string -> string -> Sym_record.t
(** The record [dev] exports to the external peer. *)

val failed_links : t -> ((string * string) * Smt.Term.t) list
(** Failure variable of every link (internal and to external peers);
    constant [fls] when failures are disabled. *)

val failed : t -> string -> string -> Smt.Term.t

val internal_neighbors : t -> string -> string list
(** Internal devices this device can forward to in the model. *)

val subnets : t -> string -> Net.Prefix.t list
(** Locally attached destination subnets of a device. *)

val stats : t -> int * int
(** (number of assertions, total term DAG size) — for reporting. *)

val sym_classes : t -> (string * string list) list
(** [(representative, concrete class members)] for every symmetry class
    of size at least two that the quotient collapsed; [[]] for a full
    encoding.  The verdict for a representative lifts to every member
    of its class. *)

val representative : t -> string -> string
(** The device standing for [d] in this encoding: [d] itself unless it
    was collapsed into a symmetry class representative. *)

val project_devices : t -> string list -> string list
(** Map concrete device names through {!representative} and keep the
    ones present in this encoding, sorted and deduplicated — how
    source/allowed device sets written against the full network are
    carried into a quotient encoding. *)
