(* The repo benchmark: four workloads over the verifier's public APIs,
   every verdict checked against an oracle, every metric printed by
   name with its unit.  See README.md in this directory.

     run.exe --workload W --seed N --seconds S --trace 0|1
             [--trace-file FILE] [--record FILE]
     run.exe --smoke
     run.exe compare A.jsonl [B.jsonl] [--benchmark BENCHMARK.json]

   The last line of standard output is one JSON object with the keys
   correct, attempted, failed and metrics: the end-to-end metrics with
   --trace 0, the per-layer metrics of a traced run with --trace 1.
   The exit code is 0 only when every oracle agreed (and, traced, the
   layer spans covered the timed window). *)

module W = Workload

let workloads =
  [
    ("fleet-audit", Fleet.run);
    ("fabric-full", Fabric.run_full);
    ("fabric-quotient", Fabric.run_quotient);
    ("serve-churn", Churn.run);
  ]

let usage () =
  prerr_endline
    "usage: run.exe --workload (fleet-audit|fabric-full|fabric-quotient|serve-churn) --seed N \
     --seconds S --trace 0|1 [--trace-file FILE] [--record FILE]\n\
    \       run.exe --smoke\n\
    \       run.exe compare A.jsonl [B.jsonl] [--benchmark BENCHMARK.json]";
  exit 2

let print_result name (r : Sample.result) =
  Printf.printf "%s: %d attempted, %d failed\n" name r.Sample.attempted r.Sample.failed;
  List.iter
    (fun m -> Printf.printf "  %-34s %14.4f %s\n" m.Sample.name m.Sample.value m.Sample.unit_)
    r.Sample.metrics

let run_one ~workload ~seed ~seconds ~trace ~trace_file ~record =
  let run = match List.assoc_opt workload workloads with Some f -> f | None -> usage () in
  let trace_file =
    if not trace then None
    else
      Some
        (match trace_file with
         | Some f -> f
         | None -> W.scratch (Printf.sprintf "trace-%s-%d.json" workload seed))
  in
  let cfg = { W.seed; seconds; smoke = false; trace_file } in
  let r, coverage_ok = run cfg in
  print_result workload r;
  Option.iter (fun f -> Printf.printf "chrome trace: %s\n" f) trace_file;
  let json = Sample.to_json r in
  Option.iter
    (fun file ->
      Out_channel.with_open_gen [ Open_append; Open_creat ] 0o644 file (fun oc ->
          Printf.fprintf oc "{\"workload\": %s, \"seed\": %d, \"trace\": %d, \"result\": %s}\n"
            (Msutil.Json.quote workload) seed (Bool.to_int trace) json))
    record;
  print_endline json;
  if not (r.Sample.correct && coverage_ok) then exit 1

(* Every workload at toy size, each input once, untraced and traced:
   the oracles and the metric names are gated, timings are not. *)
let smoke ~benchmark =
  let e2e, per_layer = Compare.decls benchmark in
  let names ds = List.sort compare (List.map (fun d -> d.Compare.name) ds) in
  let failures = ref [] in
  List.iter
    (fun (name, run) ->
      List.iter
        (fun trace ->
          let trace_file = if trace then Some (W.scratch ("smoke-trace-" ^ name ^ ".json")) else None in
          let t0 = Unix.gettimeofday () in
          let r, _ = run { W.seed = 1; seconds = 1.0; smoke = true; trace_file } in
          Printf.printf "smoke %-16s trace=%b  %d attempted, %d failed  %.1f s\n%!" name trace
            r.Sample.attempted r.Sample.failed
            (Unix.gettimeofday () -. t0);
          let got = List.sort compare (List.map (fun m -> m.Sample.name) r.Sample.metrics) in
          if got <> names (if trace then per_layer else e2e) then
            failures := (name ^ ": metric names differ from " ^ benchmark) :: !failures;
          if not r.Sample.correct || r.Sample.attempted = 0 then
            failures :=
              Printf.sprintf "%s: %d of %d failed" name r.Sample.failed r.Sample.attempted :: !failures)
        [ false; true ])
    workloads;
  match !failures with
  | [] -> print_endline "smoke OK"
  | fs ->
    List.iter (fun f -> prerr_endline ("smoke: " ^ f)) (List.rev fs);
    exit 1

let () =
  let workload = ref None and seed = ref None and seconds = ref None and trace = ref None in
  let trace_file = ref None and record = ref None and benchmark = ref "BENCHMARK.json" in
  let rec flags = function
    | "--workload" :: x :: tl -> workload := Some x; flags tl
    | "--seed" :: x :: tl -> seed := int_of_string_opt x; flags tl
    | "--seconds" :: x :: tl ->
      seconds := Option.bind (float_of_string_opt x) (fun s -> if s > 0.0 then Some s else None);
      flags tl
    | "--trace" :: ("0" | "1" as x) :: tl -> trace := Some (x = "1"); flags tl
    | "--trace-file" :: x :: tl -> trace_file := Some x; flags tl
    | "--record" :: x :: tl -> record := Some x; flags tl
    | "--benchmark" :: x :: tl -> benchmark := x; flags tl
    | [] -> []
    | x :: tl -> x :: flags tl
  in
  (* an interrupted run still exits through [at_exit], which stops any
     daemon it started *)
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 3)))
    [ Sys.sigint; Sys.sigterm ];
  match Array.to_list Sys.argv with
  | [ _; flag; socket ] when flag = Churn.daemon_flag -> Churn.daemon_main socket
  | _ :: rest -> (
    match (flags rest, !workload, !seed, !seconds, !trace) with
    | [ "--smoke" ], None, None, None, None -> smoke ~benchmark:!benchmark
    | [ "compare"; a ], _, _, _, _ -> Compare.spread ~benchmark:!benchmark a
    | [ "compare"; a; b ], _, _, _, _ -> Compare.compare ~benchmark:!benchmark a b
    | [], Some workload, Some seed, Some seconds, Some trace ->
      run_one ~workload ~seed ~seconds ~trace ~trace_file:!trace_file ~record:!record
    | _ -> usage ())
  | [] -> usage ()
