(* Fork-based portfolio racing.

   The parent builds the encoding once, then forks one racer per
   strategy (and per extra method) that inherits it, and the query
   closure, by copy-on-write — nothing is serialized on the way in;
   only reports and shared clauses cross a process boundary, as framed
   marshalled messages on per-racer pipes.

   Invariants:
   - the first decisive report (Verified/Violated) wins and every other
     racer is killed; every racer is reaped before [portfolio] returns;
   - the per-query wall-clock budget is enforced cooperatively in each
     racer (the solver's stop hook; verdict [Timeout]) and by a
     parent-side watchdog that gives up on the race past twice the
     budget. *)

module Verify = Minesweeper.Verify
module Query = Minesweeper.Verify.Query
module Report = Minesweeper.Verify.Report

type wire =
  | Finished of Report.t
  | Learned of int array list
      (* low-LBD clauses a racer learnt, in the shared CNF's literal
         numbering; the parent rebroadcasts them to siblings *)

(* -- pipe framing: 4-byte big-endian length + marshalled payload ----------- *)

let rec write_all fd b off len =
  if len > 0 then begin
    let k = Unix.write fd b off len in
    write_all fd b (off + k) (len - k)
  end

let frame_of (m : wire) =
  let payload = Marshal.to_bytes m [] in
  let n = Bytes.length payload in
  let frame = Bytes.create (4 + n) in
  Bytes.set_uint8 frame 0 ((n lsr 24) land 0xff);
  Bytes.set_uint8 frame 1 ((n lsr 16) land 0xff);
  Bytes.set_uint8 frame 2 ((n lsr 8) land 0xff);
  Bytes.set_uint8 frame 3 (n land 0xff);
  Bytes.blit payload 0 frame 4 n;
  frame

let write_msg fd (m : wire) =
  let frame = frame_of m in
  write_all fd frame 0 (Bytes.length frame)

(* POSIX guarantees pipe writes of at most PIPE_BUF bytes are atomic:
   on a non-blocking fd they land whole or fail with EAGAIN — never a
   torn frame.  Clause rebroadcast leans on this, so frames must stay
   under the floor. *)
let pipe_buf = 4096

(* Best-effort clause rebroadcast on a non-blocking pipe: chunk the
   batch so each frame fits the atomicity floor (halving on the rare
   marshalled-size overflow), and drop the chunk if the receiver's pipe
   is full (EAGAIN) or closed (EPIPE) — shared clauses are redundant
   hints, losing some costs nothing but speed. *)
let rec send_clauses fd = function
  | [] -> ()
  | clauses ->
    let batch, rest =
      let rec take n acc = function
        | x :: tl when n > 0 -> take (n - 1) (x :: acc) tl
        | tl -> (List.rev acc, tl)
      in
      take 8 [] clauses
    in
    let frame = frame_of (Learned batch) in
    if Bytes.length frame > pipe_buf then begin
      match batch with
      | [ _ ] -> send_clauses fd rest (* oversized singleton: drop *)
      | _ ->
        let k = List.length batch / 2 in
        let rec split n acc = function
          | x :: tl when n > 0 -> split (n - 1) (x :: acc) tl
          | tl -> (List.rev acc, tl)
        in
        let a, b = split k [] batch in
        send_clauses fd a;
        send_clauses fd (b @ rest)
    end
    else begin
      (try ignore (Unix.write fd frame 0 (Bytes.length frame)) with
       | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EPIPE), _, _) -> ()
       | Unix.Unix_error _ -> ());
      send_clauses fd rest
    end

(* Consume every complete frame buffered for a racer.  [Marshal] needs
   a contiguous view, so the buffer is rebuilt from the leftover — the
   messages are small and rare enough that this never matters. *)
let drain_frames buf handle =
  let progress = ref true in
  while !progress do
    progress := false;
    let len = Buffer.length buf in
    if len >= 4 then begin
      let b = Buffer.to_bytes buf in
      let n =
        (Bytes.get_uint8 b 0 lsl 24)
        lor (Bytes.get_uint8 b 1 lsl 16)
        lor (Bytes.get_uint8 b 2 lsl 8)
        lor Bytes.get_uint8 b 3
      in
      if len >= 4 + n then begin
        let (m : wire) = Marshal.from_bytes b 4 in
        Buffer.clear buf;
        Buffer.add_subbytes buf b (4 + n) (len - 4 - n);
        handle m;
        progress := true
      end
    end
  done

(* -- racer side ------------------------------------------------------------ *)

(* Wire a racer's session into the clause exchange: export low-LBD
   learnt clauses up the report pipe, and poll the import pipe for
   siblings' clauses.  Both happen inside the solver's restart hook —
   decision level 0, propagation complete — where imported clauses
   attach with valid watches (and, under --certify, pass the RUP check
   that keeps the proof trace sound; see Smt.Solver.import_clause). *)
let wire_sharing session ~import_fd ~report_fd =
  let solver = Verify.Session.solver session in
  Smt.Solver.enable_sharing solver;
  let ibuf = Buffer.create 1024 in
  let tmp = Bytes.create 65536 in
  Smt.Solver.set_on_restart solver
    (Some
       (fun () ->
         (match Smt.Solver.drain_exported solver with
          | [] -> ()
          | clauses -> ( try write_msg report_fd (Learned clauses) with _ -> ()));
         let rec pump () =
           match Unix.select [ import_fd ] [] [] 0.0 with
           | [ _ ], _, _ ->
             (match Unix.read import_fd tmp 0 (Bytes.length tmp) with
              | 0 -> () (* parent gone; stop pulling *)
              | k ->
                Buffer.add_subbytes ibuf tmp 0 k;
                drain_frames ibuf (function
                  | Learned clauses ->
                    List.iter (fun c -> ignore (Smt.Solver.import_clause solver c)) clauses
                  | Finished _ -> ());
                pump ()
              | exception Unix.Unix_error (Unix.EINTR, _, _) -> pump ()
              | exception _ -> ())
           | _ -> ()
           | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
         in
         pump ()))

(* -- parent side ----------------------------------------------------------- *)

type racer = {
  pid : int;
  fd : Unix.file_descr;  (* racer -> parent: its report and exported clauses *)
  import : Unix.file_descr option;
      (* parent -> racer clause rebroadcast; non-blocking, so a slow
         importer never stalls the race (clause hints are droppable) *)
  buf : Buffer.t;
  mutable alive : bool;
}

(* Fork one racer.  The child computes its report with [answer] — given
   its report pipe and, when [import], the read end of its import pipe
   — and sends it up as one [Finished] stamped with [worker_id] and
   [name].  [siblings] are the parent's ends of earlier racers' pipes,
   closed in the child so a racer's exit is seen as EOF. *)
let spawn ~siblings ~worker_id ~name ~import ~label answer =
  let r, w = Unix.pipe () in
  let ipipe =
    if import then begin
      let ir, iw = Unix.pipe () in
      Unix.set_nonblock iw;
      Some (ir, iw)
    end
    else None
  in
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
    Unix.close r;
    Option.iter (fun (_, iw) -> Unix.close iw) ipipe;
    List.iter (fun fd -> try Unix.close fd with _ -> ()) siblings;
    (try
       let rep =
         try answer ~report_fd:w (Option.map fst ipipe)
         with e -> Report.v label (Report.Error (Printexc.to_string e))
       in
       write_msg w (Finished { rep with Report.worker = worker_id; strategy = Some name })
     with _ -> ());
    (try Unix.close w with _ -> ());
    Unix._exit 0
  | pid ->
    Unix.close w;
    Option.iter (fun (ir, _) -> Unix.close ir) ipipe;
    { pid; fd = r; import = Option.map snd ipipe; buf = Buffer.create 512; alive = true }

(* -- portfolio: race strategies on one query, first decisive answer wins --- *)

let portfolio ?timeout ?(strategies = Minesweeper.Options.portfolio) ?(share = true)
    ?(extra = []) enc q =
  if strategies = [] && extra = [] then
    invalid_arg "Engine.portfolio: empty strategy list";
  let q = Query.with_default_timeout timeout q in
  let started = Unix.gettimeofday () in
  (* Rebroadcasting to a racer that just won (and exited) must not kill
     the parent with SIGPIPE; restore the handler on the way out. *)
  let prev_sigpipe =
    if share then Some (Sys.signal Sys.sigpipe Sys.Signal_ignore) else None
  in
  let solve strategy ~report_fd import =
    let session = Verify.Session.of_encoding ~strategy enc in
    Option.iter (fun import_fd -> wire_sharing session ~import_fd ~report_fd) import;
    Verify.Session.run_one session q
  in
  (* Non-solver racers (e.g. the lib/faults graph fast path) report like
     any other racer but import nothing.  An indecisive thunk returns
     [Error]/[Timeout], which lands in [fallback] and lets a solver
     racer win — exactly the fall-back-to-SMT semantics. *)
  let racers =
    List.map (fun (name, strategy) -> (name, share, solve strategy)) strategies
    @ List.map (fun (name, thunk) -> (name, false, fun ~report_fd:_ _ -> thunk ())) extra
  in
  let procs =
    List.fold_left
      (fun procs (name, import, answer) ->
        let siblings =
          List.concat_map (fun p -> p.fd :: Option.to_list p.import) procs
        in
        spawn ~siblings ~worker_id:(List.length procs + 1) ~name ~import ~label:q.Query.label
          answer
        :: procs)
      [] racers
    |> List.rev
  in
  let winner = ref None in
  let fallback = ref None in
  let note (r : Report.t) =
    match r.Report.verdict with
    | Report.Verified | Report.Violated _ -> if !winner = None then winner := Some r
    | Report.Timeout | Report.Error _ -> if !fallback = None then fallback := Some r
  in
  (* Clauses one racer learns go to every other live importer. *)
  let rebroadcast ~from clauses =
    List.iter
      (fun p ->
        match p.import with
        | Some iw when p.alive && p != from -> send_clauses iw clauses
        | _ -> ())
      procs
  in
  let tmp = Bytes.create 65536 in
  let read_racer p =
    let handle = function Finished r -> note r | Learned clauses -> rebroadcast ~from:p clauses in
    match Unix.read p.fd tmp 0 (Bytes.length tmp) with
    | 0 ->
      drain_frames p.buf handle;
      p.alive <- false
    | n ->
      Buffer.add_subbytes p.buf tmp 0 n;
      drain_frames p.buf handle
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  in
  let kill_deadline =
    match q.Query.timeout with Some t -> Some (started +. (2.0 *. t) +. 1.0) | None -> None
  in
  let watchdog_fired = ref false in
  let live () = List.filter (fun p -> p.alive) procs in
  while !winner = None && (not !watchdog_fired) && live () <> [] do
    let timeout_left =
      match kill_deadline with
      | Some d -> Float.max 0.0 (d -. Unix.gettimeofday ())
      | None -> 3600.0
    in
    match Unix.select (List.map (fun p -> p.fd) (live ())) [] [] timeout_left with
    | [], _, _ -> if kill_deadline <> None && timeout_left <= 0.0 then watchdog_fired := true
    | ready, _, _ ->
      List.iter (fun p -> if p.alive && List.mem p.fd ready then read_racer p) procs
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  (* Cancel the losers (and any watchdog-stuck racer) and reap everyone. *)
  List.iter
    (fun p ->
      if p.alive then (try Unix.kill p.pid Sys.sigkill with _ -> ());
      (try Unix.close p.fd with _ -> ());
      Option.iter (fun iw -> try Unix.close iw with _ -> ()) p.import;
      try ignore (Unix.waitpid [] p.pid) with _ -> ())
    procs;
  Option.iter (fun h -> ignore (Sys.signal Sys.sigpipe h)) prev_sigpipe;
  match (!winner, !fallback) with
  | Some r, _ -> r
  | None, Some r -> r
  | None, None ->
    {
      (Report.v q.Query.label
         (if !watchdog_fired then Report.Timeout
          else Report.Error "all portfolio racers crashed"))
      with
      Report.wall_ms = (Unix.gettimeofday () -. started) *. 1000.0;
    }
