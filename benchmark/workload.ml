(* What every workload shares: the run configuration, the timed
   request loop, and the traced run that yields the per-layer
   metrics. *)

type cfg = {
  seed : int;
  seconds : float;  (* length of the timed window *)
  smoke : bool;  (* tiny inputs, oracles only *)
  trace_file : string option;  (* Some: traced run, Chrome trace written here *)
}

let now = Unix.gettimeofday

(* [scratch name] is [_bench/name], under the current directory:
   daemon sockets and Chrome traces go there. *)
let scratch name =
  if not (Sys.file_exists "_bench") then Sys.mkdir "_bench" 0o755;
  Filename.concat "_bench" name

(* The timed window of one pass: requests 0 .. n-1 answered between
   [w0] and [w1]. *)
type window = { w0 : float; w1 : float; n : int }

let loop ~stop f =
  let w0 = now () in
  let rec go i =
    if stop i then i
    else begin
      f i;
      go (i + 1)
    end
  in
  let n = go 0 in
  { w0; w1 = now (); n }

(* [loop] that also reads the benchmark's peak resident set (MB) once
   request [rss_at] is answered, or at the end of a shorter window.  The
   heap grows with the requests answered, so a peak read at the end of
   the window would charge a faster commit for the extra requests it
   fits in. *)
let loop_rss ~rss_at ~stop f =
  let rss = ref None in
  let w =
    loop ~stop (fun i ->
        f i;
        if i + 1 = rss_at then rss := Some (Sample.peak_rss_mb 0))
  in
  (w, match !rss with Some mb -> mb | None -> Sample.peak_rss_mb 0)

(* Stops at the request boundary nearest the deadline: once less than
   half a request, at the mean pace of the calls so far, is left. *)
let until_deadline seconds =
  let t0 = now () in
  let d = t0 +. seconds and calls = ref 0 in
  fun _ ->
    let t = now () in
    let half = if !calls = 0 then 0.0 else (t -. t0) /. float_of_int !calls /. 2.0 in
    incr calls;
    t +. half >= d

let first n i = i >= n

(* The stop condition of a timed window: [share] of the run time, or
   under [--smoke] exactly [requests] requests (each input once). *)
let window cfg ~requests ~share =
  if cfg.smoke then first requests else until_deadline (share *. cfg.seconds)

(* Set-up is repeated [n] times per run (once under [--smoke]) and
   reported as the median, so one slow repetition does not move
   [setup_s]; the cheaper the set-up, the more repetitions. *)
let reps cfg n = if cfg.smoke then 1 else n

let elapsed_s w = w.w1 -. w.w0

let coverage_floor = 0.95

(* Verdict accounting shared by the workloads: every answered request
   is attempted; a timeout, an error, a malformed response or a verdict
   the oracle disagrees with counts as failed. *)
type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable verdict_ms : float list;
  mutable cold_ms : float list;
}

let tally () = { attempted = 0; failed = 0; verdict_ms = []; cold_ms = [] }

let record t ~ok ~ms =
  t.attempted <- t.attempted + 1;
  if not ok then t.failed <- t.failed + 1;
  t.verdict_ms <- ms :: t.verdict_ms

(* Fold the cold verdicts the set-up repetitions answered into the
   window's tally. *)
let add_cold t cold =
  t.cold_ms <- cold.verdict_ms @ t.cold_ms;
  t.attempted <- t.attempted + cold.attempted;
  t.failed <- t.failed + cold.failed

(* [fail] counts a request that failed before it produced a verdict;
   [refute], an answered request a later oracle check disagrees with.
   Both explain themselves on stderr. *)
let fail t fmt =
  Printf.ksprintf
    (fun msg ->
      t.attempted <- t.attempted + 1;
      t.failed <- t.failed + 1;
      prerr_endline ("benchmark: " ^ msg))
    fmt

let refute t fmt =
  Printf.ksprintf
    (fun msg ->
      t.failed <- t.failed + 1;
      prerr_endline ("benchmark: " ^ msg))
    fmt

(* Does a report match the oracle's expectation?  Explains a mismatch
   on stderr. *)
let verdict_ok ~what (r : Minesweeper.Verify.Report.t) ~violated =
  let module R = Minesweeper.Verify.Report in
  let ok =
    match r.R.verdict with
    | R.Verified -> not violated
    | R.Violated _ -> violated
    | R.Timeout | R.Error _ -> false
  in
  if not ok then
    Printf.eprintf "benchmark: %s: %s answered %s, expected %s\n%!" what r.R.label
      (R.verdict_name r.R.verdict)
      (if violated then "violated" else "verified");
  ok

(* The end-to-end metrics, in the order BENCHMARK.json lists them.
   [tail] is the workload's tail percentile: the highest one its run
   length leaves at least ten samples beyond. *)
let end_to_end ~setup_s ~tail (t : tally) ~verdicts_per_s ~rss_mb =
  let m = Sample.m in
  [
    m "setup_s" "s" setup_s;
    m "verdict_ms.p50" "ms" (Sample.median t.verdict_ms);
    m "verdict_ms.tail" "ms" (Sample.quantile t.verdict_ms tail);
    m "cold_verdict_ms" "ms" (Sample.median t.cold_ms);
    m "verdicts_per_s" "1/s" verdicts_per_s;
    m "peak_rss_mb" "MB" rss_mb;
  ]

let result (t : tally) metrics =
  { Sample.correct = t.failed = 0; attempted = t.attempted; failed = t.failed; metrics }

(* The traced run.  An untraced pass over half the run time fixes the
   request count; a traced pass from fresh state then answers the same
   requests, so [trace.overhead] compares equal work.  [pass tr stop]
   runs one pass and returns its window, its tally and whatever [serve]
   needs to compute the serve-layer metrics from the untraced and the
   traced pass.  The second component of the answer is false when the
   layer spans cover less than [coverage_floor] of the traced window. *)
let traced cfg ~requests ~pass ~serve =
  let u, (tu, xu) = pass None (window cfg ~requests ~share:0.5) in
  let t = Trace.create () in
  let gc0 = Gc.quick_stat () in
  let w, (tt, x) = pass (Some t) (first u.n) in
  let gc1 = Gc.quick_stat () in
  Trace.attribute t;
  Option.iter (Trace.write_chrome t) cfg.trace_file;
  let info =
    { Layers.w0 = w.w0; w1 = w.w1; requests = w.n; untraced_s = elapsed_s u; gc0; gc1 }
  in
  let metrics = Layers.metrics t info ~serve:(serve xu x) in
  let coverage = (List.find (fun m -> m.Sample.name = "trace.coverage") metrics).Sample.value in
  if coverage < coverage_floor then
    Printf.eprintf "benchmark: layer spans cover %.1f%% of the timed window (floor %.0f%%)\n%!"
      (100.0 *. coverage) (100.0 *. coverage_floor);
  let both =
    { (tally ()) with attempted = tu.attempted + tt.attempted; failed = tu.failed + tt.failed }
  in
  (result both metrics, coverage >= coverage_floor)
