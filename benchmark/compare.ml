(* Reading recorded runs ([run.exe --record FILE] appends one JSON line
   per run) and judging them against the bounds in BENCHMARK.json.

   [spread A] reports, per workload and end-to-end metric, the median,
   the quartiles and the spread (interquartile distance over the
   median) against the metric's bound.  [compare A B] puts two commits
   side by side, pairing the i-th run of A with the i-th run of B, and
   calls each metric better, worse, same or unresolved. *)

module J = Msutil.Json

type decl = { name : string; better_lower : bool; bound : float option }

let parse_file path =
  match J.parse (In_channel.with_open_bin path In_channel.input_all) with
  | Ok v -> v
  | Error e -> failwith (path ^ ": " ^ e)

let decls benchmark =
  let v = parse_file benchmark in
  let side key =
    Option.value ~default:[] (Option.bind (J.member key v) J.get_list)
    |> List.filter_map (fun m ->
           Option.map
             (fun name ->
               {
                 name;
                 better_lower = Option.bind (J.member "better" m) J.get_string <> Some "higher";
                 bound = Option.bind (J.member "bound" m) J.get_float;
               })
             (Option.bind (J.member "name" m) J.get_string))
  in
  (side "end_to_end", side "per_layer")

(* workload -> trace flag -> runs, each a metric -> value list, in file
   order. *)
let runs path =
  In_channel.with_open_bin path In_channel.input_lines
  |> List.filter (fun l -> String.trim l <> "")
  |> List.map (fun line ->
         match J.parse line with
         | Error e -> failwith (path ^ ": " ^ e)
         | Ok v ->
           let str k = Option.value ~default:"?" (Option.bind (J.member k v) J.get_string) in
           let trace = Option.bind (J.member "trace" v) J.get_int = Some 1 in
           let metrics =
             match Option.bind (J.member "result" v) (J.member "metrics") with
             | Some (J.Obj kvs) ->
               List.filter_map
                 (fun (k, m) ->
                   Option.map (fun x -> (k, x)) (Option.bind (J.member "value" m) J.get_float))
                 kvs
             | _ -> []
           in
           (str "workload", trace, metrics))

let workloads_of rs = List.sort_uniq compare (List.map (fun (w, _, _) -> w) rs)

let values rs ~workload ~trace name =
  List.filter_map
    (fun (w, t, ms) -> if w = workload && t = trace then List.assoc_opt name ms else None)
    rs

let spread_of xs =
  let q1, med, q3 = Sample.quartiles xs in
  (med, q1, q3, Sample.ratio (q3 -. q1) (Float.abs med))

let spread ~benchmark path =
  let e2e, _ = decls benchmark in
  let rs = runs path in
  let noisy = ref false in
  Printf.printf "%-16s %-22s %4s %12s %12s %12s %8s %6s\n" "workload" "metric" "n" "median" "q1" "q3"
    "spread" "bound";
  List.iter
    (fun workload ->
      List.iter
        (fun d ->
          match values rs ~workload ~trace:false d.name with
          | [] -> ()
          | xs ->
            let med, q1, q3, s = spread_of xs in
            let bound = Option.value ~default:0.0 d.bound in
            let note =
              if s <= bound /. 3.0 then "steady"
              else if s <= bound then "within bound"
              else if d.name = "setup_s" then "noisy (set-up is exempt)"
              else begin
                noisy := true;
                "TOO NOISY"
              end
            in
            Printf.printf "%-16s %-22s %4d %12.4f %12.4f %12.4f %8.4f %6.2f  %s\n" workload d.name
              (List.length xs) med q1 q3 s bound note)
        e2e)
    (workloads_of rs);
  if !noisy then exit 1

(* The guide's rule for a change against its parent: a spread wider
   than the bound leaves the metric unresolved unless every run of B
   beats every run of A; otherwise B is worse past the bound, better
   when it wins nine pairs in ten by more than A's quartile distance,
   else the same. *)
let judge d a b =
  let ma, qa1, qa3, sa = spread_of a and mb, _, _, sb = spread_of b in
  let improves x y = if d.better_lower then y < x else y > x in
  let n = min (List.length a) (List.length b) in
  let prefix xs = List.filteri (fun i _ -> i < n) xs in
  let pairs = List.combine (prefix a) (prefix b) in
  let wins = List.length (List.filter (fun (x, y) -> improves x y) pairs) in
  let all_better = List.for_all (fun y -> List.for_all (fun x -> improves x y) a) b in
  let worse_by = (if d.better_lower then mb -. ma else ma -. mb) /. Float.abs ma in
  match d.bound with
  | None -> if all_better then "better" else "-"
  | Some bound ->
    if Float.max sa sb > bound && not all_better then "unresolved"
    else if worse_by > bound then "worse"
    else if float_of_int wins >= 0.9 *. float_of_int n && Float.abs (mb -. ma) > qa3 -. qa1
    then "better"
    else "same"

let compare ~benchmark pa pb =
  let e2e, per_layer = decls benchmark in
  let ra = runs pa and rb = runs pb in
  Printf.printf "%-16s %-34s %12s %25s %12s %25s %8s %6s  %s\n" "workload" "metric" "A median"
    "A [q1, q3]" "B median" "B [q1, q3]" "spread" "bound" "verdict";
  List.iter
    (fun workload ->
      List.iter
        (fun (trace, ds) ->
          List.iter
            (fun d ->
              match (values ra ~workload ~trace d.name, values rb ~workload ~trace d.name) with
              | [], _ | _, [] -> ()
              | a, b ->
                let ma, qa1, qa3, sa = spread_of a and mb, qb1, qb3, sb = spread_of b in
                Printf.printf "%-16s %-34s %12.4f %25s %12.4f %25s %8.4f %6s  %s\n" workload d.name ma
                  (Printf.sprintf "[%.4f, %.4f]" qa1 qa3)
                  mb
                  (Printf.sprintf "[%.4f, %.4f]" qb1 qb3)
                  (Float.max sa sb)
                  (match d.bound with Some x -> Printf.sprintf "%.2f" x | None -> "-")
                  (judge d a b))
            ds)
        [ (false, e2e); (true, per_layer) ])
    (workloads_of (ra @ rb))
