(** Verification as a service: a long-lived daemon answering
    {!Minesweeper.Verify.Protocol} requests (line-delimited JSON over a
    Unix-domain socket) with {!Minesweeper.Verify.Report}-based
    responses, every one carrying a ["schema"] field.

    The daemon keeps {e one} incremental support-tracking solver and
    moves it from state to state: every encoding is built in the
    daemon's own {!Minesweeper.Encode.build} name-space, and
    {!Minesweeper.Verify.Session.rebase} re-asserts only the device
    slices whose terms changed, so learnt clauses and the CNF cache
    carry across diffs.  A fresh solver replaces it when [rebase]
    refuses (the unscoped assertions changed) or once it carries more
    than twice the SAT variables it started with.  Each new encoding
    after the first is {!Minesweeper.Encode.rebuild} of the solver's
    current one: only the devices the change can reach are encoded
    again ([stats] counts [rebuilds] and their [reencoded_devices]).  A
    configuration the lint pre-flight rejects is accepted by [load] and
    [diff] but makes [query] fail, leaving the solver and the rebuild
    base untouched.

    Two caches make the daemon more than a socket wrapper:

    - an {e encoding cache} (FIFO, 8 entries), keyed by the concrete
      network digest (per-device {!Analysis.Symmetry.digest} plus the
      topology), so re-loading a previously-seen configuration — the
      A→B→A flap of a rolled-back change — reuses the built encoding
      and its view of the daemon's solver;

    - a {e verdict cache}, keyed by {!Minesweeper.Verify.Protocol.spec_key}
      and migrated across config diffs by {e core-disjoint replay}: a
      [Verified] report from a support-tracking session names the
      devices its refutation used, and when a diff's conservatively
      expanded changed-device set is disjoint from both that support
      and the devices whose configuration the spec's property terms
      read directly (its destination, an equivalence pair), the verdict
      is replayed (report marked [replayed]) without touching a solver.
      Global properties whose terms enumerate config-dependent
      structure of every device (blackholes, loops, no-leak, all-pairs)
      never replay across a diff; diffs that change the device set, the
      topology, the feature scan or the iBGP session structure fall
      back to full re-verification (all cached verdicts dropped).  The
      changed-device set and its expansion are
      {!Minesweeper.Encode.affected}'s; see DESIGN.md for the soundness
      argument.

    Encodings are built lazily — a diff whose cached verdicts all
    replay, followed by queries answered from the cache, never encodes
    the new network at all. *)

type t
(** Daemon state: current network, both caches, and the counters
    surfaced by the [stats] op. *)

val create : ?jobs:int -> Minesweeper.Options.t -> t
(** Every query runs on the daemon's one incremental session.  [jobs]
    (default 1) is kept only so existing callers that pass [~jobs:1]
    still compile; any other value raises [Invalid_argument].  Three
    options are forced off in [opts]: [symmetry] (support tracking
    names concrete devices), and [merge_dataplane] / [merge_filters]
    (ACL and policy semantics must live in tagged per-device assertions
    for core-disjoint replay to be sound, not be inlined into property
    terms the core cannot attribute). *)

val handle_line : t -> string -> string * [ `Continue | `Stop ]
(** Process one request line, return the response line — the daemon's
    whole logic, exposed directly so tests and in-process callers can
    skip the socket.  [`Stop] acknowledges a [shutdown] request. *)

val run : t -> socket:string -> unit
(** Serve requests on a Unix-domain socket at [socket] (an existing
    file at that path is replaced) until a [shutdown] request; the
    socket file is removed on exit.  Clients are multiplexed with
    [select]; requests are executed serially in arrival order, one
    response line per request line.  A client disconnecting mid-line
    discards its partial request and nothing else. *)

(** A minimal blocking client for tests, the bench harness, and
    in-tree tooling. *)
module Client : sig
  type conn

  val connect : string -> conn

  val connect_retry : ?attempts:int -> string -> conn
  (** Retry [connect] at 100 ms intervals while the socket does not yet
      exist or refuses — for callers that just forked the daemon. *)

  val close : conn -> unit
  val send_line : conn -> string -> unit

  val send_raw : conn -> string -> unit
  (** Write bytes with no newline appended — tests use it to abandon a
      request mid-line. *)

  val read_line : conn -> string

  val request_line : conn -> string -> string
  (** Send one request line, read one response line. *)

  val request : conn -> string -> Msutil.Json.value
  (** {!request_line} plus parsing.
      @raise Failure on connection loss or an unparseable response. *)
end
