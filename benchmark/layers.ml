(* The benchmark's calls into each layer of the verifier, each wrapped
   in a span (a no-op when tracing is off), and the per-layer metrics
   computed from a traced run. *)

module MS = Minesweeper
module Session = MS.Verify.Session
module Report = MS.Verify.Report

let now = Unix.gettimeofday

let time_ms f =
  let t0 = now () in
  ignore (Sys.opaque_identity (f ()));
  (now () -. t0) *. 1000.0

(* Every query gets this budget; a timeout counts as a failed request. *)
let query_timeout = 120.0

let parse tr text =
  Trace.count tr "config.bytes" (float_of_int (String.length text));
  Trace.span tr "config.parse" (fun () -> Config.Parser.parse_network text)

let device_count (net : Config.Ast.network) = float_of_int (List.length net.Config.Ast.net_devices)

(* [Encode.build] runs the pre-flight lint and, under symmetry, the
   quotient reduction before encoding; the attribution pass re-runs
   both on the same input to split the span. *)
let encode tr ?(pins = []) net opts =
  let attr enc =
    let lint =
      if opts.MS.Options.preflight_lint then time_ms (fun () -> Analysis.Lint.run net) else 0.0
    in
    let sym =
      if opts.MS.Options.symmetry then time_ms (fun () -> Analysis.Symmetry.reduce ~pins net) else 0.0
    in
    let assertions, size = MS.Encode.stats enc in
    Trace.count tr "core.builds" 1.0;
    Trace.count tr "core.assertions" (float_of_int assertions);
    Trace.count tr "core.term_dag_size" (float_of_int size);
    Trace.count tr "analysis.devices_encoded" (float_of_int (List.length (MS.Encode.devices enc)));
    Trace.count tr "analysis.devices_total" (device_count net);
    List.filter (fun (_, ms) -> ms > 0.0) [ ("analysis.lint", lint); ("analysis.symmetry", sym) ]
  in
  Trace.span ~attr tr "core.encode" (fun () -> MS.Encode.build ~pins net opts)

let solver_size tr (st : Smt.Solver.stats) =
  Trace.count tr "smt.solvers" 1.0;
  Trace.count tr "smt.sat_vars" (float_of_int st.Smt.Solver.sat_vars);
  Trace.count tr "smt.sat_clauses" (float_of_int st.Smt.Solver.sat_clauses)

let session tr enc =
  let s = Trace.span tr "core.cnf" (fun () -> Session.of_encoding enc) in
  if tr <> None then solver_size tr (Session.stats s);
  s

let search_stats tr (st : Smt.Solver.stats) ~arena_words =
  let c name v = Trace.count tr name (float_of_int v) in
  c "smt.queries" 1;
  c "smt.conflicts" st.Smt.Solver.conflicts;
  c "smt.decisions" st.Smt.Solver.decisions;
  c "smt.propagations" st.Smt.Solver.propagations;
  c "smt.theory_propagations" st.Smt.Solver.theory_propagations;
  c "smt.restarts" st.Smt.Solver.restarts;
  c "smt.learned_clauses" st.Smt.Solver.learned_clauses;
  c "smt.lbd_reductions" st.Smt.Solver.lbd_reductions;
  c "smt.preprocessed_clauses" st.Smt.Solver.preprocessed_clauses;
  c "smt.arena_compactions" st.Smt.Solver.arena_compactions;
  Trace.count tr "smt.minor_words" st.Smt.Solver.minor_words;
  Trace.peak tr "smt.arena_words_max" (float_of_int arena_words)

let run_one tr s q =
  let r = Trace.span tr "core.query" (fun () -> Session.run_one s q) in
  if tr <> None then
    search_stats tr r.Report.stats ~arena_words:(Session.stats s).Smt.Solver.arena_words;
  r

(* [run_query] converts the network to CNF on a fresh solver before
   searching; the attribution pass times that conversion alone by
   building a session over the same encoding. *)
let run_query tr enc q =
  let attr _ = [ ("core.cnf", time_ms (fun () -> Session.of_encoding enc)) ] in
  let r = Trace.span ~attr tr "core.query" (fun () -> MS.Verify.run_query enc q) in
  if tr <> None then begin
    solver_size tr r.Report.stats;
    search_stats tr r.Report.stats ~arena_words:r.Report.stats.Smt.Solver.arena_words
  end;
  r

(* -- per-layer metrics of a traced run ------------------------------------ *)

type run_info = {
  w0 : float;  (* traced window, seconds *)
  w1 : float;
  requests : int;
  untraced_s : float;  (* wall time of the same requests, untraced *)
  gc0 : Gc.stat;
  gc1 : Gc.stat;
}

let layer_names =
  [ "config.parse"; "analysis.lint"; "analysis.symmetry"; "core.encode"; "core.cnf"; "core.query" ]

(* The serve layer's metrics; only serve-churn drives the daemon, the
   other workloads report them as 0. *)
type serve = {
  load_ms : float;
  diff_ms : float;
  query_ms_p50 : float;
  query_ms_max : float;
  stats_ms_p50 : float;
  stats_ms_p99 : float;
  probe_lag_ms_max : float;
  solves : float;  (* solver runs per diff *)
  replay_ratio : float;
  verdict_hit_ratio : float;
  enc_cache_hit_ratio : float;
}

let serve_metrics s =
  let m = Sample.m in
  [
    m "serve.load_ms" "ms" s.load_ms;
    m "serve.diff_ms" "ms" s.diff_ms;
    m "serve.query_ms.p50" "ms" s.query_ms_p50;
    m "serve.query_ms.max" "ms" s.query_ms_max;
    m "serve.stats_ms.p50" "ms" s.stats_ms_p50;
    m "serve.stats_ms.p99" "ms" s.stats_ms_p99;
    m "serve.probe_lag_ms.max" "ms" s.probe_lag_ms_max;
    m "serve.solves" "count" s.solves;
    m "serve.replay_ratio" "ratio" s.replay_ratio;
    m "serve.verdict_hit_ratio" "ratio" s.verdict_hit_ratio;
    m "serve.enc_cache_hit_ratio" "ratio" s.enc_cache_hit_ratio;
  ]

let no_serve =
  serve_metrics
    {
      load_ms = 0.0;
      diff_ms = 0.0;
      query_ms_p50 = 0.0;
      query_ms_max = 0.0;
      stats_ms_p50 = 0.0;
      stats_ms_p99 = 0.0;
      probe_lag_ms_max = 0.0;
      solves = 0.0;
      replay_ratio = 0.0;
      verdict_hit_ratio = 0.0;
      enc_cache_hit_ratio = 0.0;
    }

let metrics (t : Trace.t) info ~serve =
  let self = Trace.self_times t in
  let spans name = Trace.named t name in
  let durs name = List.map Trace.dur_ms (spans name) in
  let selfs name = List.map self (spans name) in
  let med xs = match xs with [] -> 0.0 | _ -> Sample.median xs in
  let wall_ms = (info.w1 -. info.w0) *. 1000.0 in
  let share name =
    Sample.ratio
      (Sample.sum
         (List.filter_map
            (fun s -> if s.Trace.t0 >= info.w0 && s.Trace.t0 <= info.w1 then Some (self s) else None)
            (spans name)))
      wall_ms
  in
  let c = Trace.counter t in
  let per name denom = Sample.ratio (c name) (c denom) in
  let q = "smt.queries" in
  let parse_s = Sample.sum (durs "config.parse") /. 1000.0 in
  let query_s = Sample.sum (selfs "core.query") /. 1000.0 in
  let mb words = words *. float_of_int (Sys.word_size / 8) /. 1e6 in
  let n = float_of_int (max 1 info.requests) in
  let m = Sample.m in
  [
    m "config.parse_ms" "ms" (med (durs "config.parse"));
    m "config.parse_kb_per_s" "KB/s" (Sample.ratio (c "config.bytes" /. 1024.0) parse_s);
    m "analysis.lint_ms" "ms" (med (durs "analysis.lint"));
    m "analysis.devices_encoded_ratio" "ratio"
      (per "analysis.devices_encoded" "analysis.devices_total");
    m "core.encode_ms" "ms" (med (durs "core.encode"));
    m "core.encode_self_ms" "ms" (med (selfs "core.encode"));
    m "core.assertions" "count" (per "core.assertions" "core.builds");
    m "core.term_dag_size" "count" (per "core.term_dag_size" "core.builds");
    m "core.cnf_ms" "ms" (med (durs "core.cnf"));
    m "core.query_ms" "ms" (med (selfs "core.query"));
    m "smt.sat_vars" "count" (per "smt.sat_vars" "smt.solvers");
    m "smt.sat_clauses" "count" (per "smt.sat_clauses" "smt.solvers");
    m "smt.conflicts" "count" (per "smt.conflicts" q);
    m "smt.decisions" "count" (per "smt.decisions" q);
    m "smt.propagations" "count" (per "smt.propagations" q);
    m "smt.propagations_per_s" "1/s" (Sample.ratio (c "smt.propagations") query_s);
    m "smt.decisions_per_conflict" "ratio" (per "smt.decisions" "smt.conflicts");
    m "smt.theory_propagations" "count" (per "smt.theory_propagations" q);
    m "smt.restarts" "count" (per "smt.restarts" q);
    m "smt.learned_clauses" "count" (per "smt.learned_clauses" q);
    m "smt.learnt_deleted_ratio" "ratio" (per "smt.lbd_reductions" "smt.learned_clauses");
    m "smt.preprocessed_clauses" "count" (per "smt.preprocessed_clauses" q);
    m "smt.minor_words_per_propagation" "words" (per "smt.minor_words" "smt.propagations");
    m "smt.arena_mb" "MB" (mb (c "smt.arena_words_max"));
    m "smt.arena_compactions" "count" (per "smt.arena_compactions" q);
  ]
  @ List.map
      (fun l -> m ((if l = "core.encode" then "core.encode_self" else l) ^ "_share") "ratio" (share l))
      layer_names
  @ serve
  @ [
      m "gc.minor_mb" "MB" (mb (info.gc1.Gc.minor_words -. info.gc0.Gc.minor_words) /. n);
      m "gc.major_collections" "count"
        (float_of_int (info.gc1.Gc.major_collections - info.gc0.Gc.major_collections) /. n);
      m "gc.top_heap_mb" "MB" (mb (float_of_int info.gc1.Gc.top_heap_words));
      m "trace.overhead" "ratio" (Sample.ratio (info.w1 -. info.w0) info.untraced_s);
      m "trace.coverage" "ratio" (Trace.coverage t ~w0:info.w0 ~w1:info.w1);
    ]
