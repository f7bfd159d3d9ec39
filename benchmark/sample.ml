(* Order statistics and the benchmark's result record. *)

(* Linear-interpolation quantile (numpy's default) of an unsorted
   sample; [nan] on an empty one. *)
let quantile xs p =
  match List.sort compare xs with
  | [] -> nan
  | sorted ->
    let a = Array.of_list sorted in
    let n = Array.length a in
    let h = p *. float_of_int (n - 1) in
    let lo = int_of_float h in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile xs 0.5

(* Python's [statistics.quantiles(xs, n=4)] (exclusive method): the
   quartiles the run-to-run spread is judged by. *)
let quartiles xs =
  let a = Array.of_list (List.sort compare xs) in
  let n = Array.length a in
  if n < 2 then
    let m = if n = 1 then a.(0) else nan in
    (m, m, m)
  else
    let m = n + 1 in
    let q i =
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 2, q 3)

let sum xs = List.fold_left ( +. ) 0.0 xs
let mean xs = match xs with [] -> 0.0 | _ -> sum xs /. float_of_int (List.length xs)
let ratio a b = if b > 0.0 then a /. b else 0.0

type metric = { name : string; value : float; unit_ : string }

type result = { correct : bool; attempted : int; failed : int; metrics : metric list }

let m name unit_ value = { name; value; unit_ }

(* Every digit the float has; non-finite values (an empty sample) are
   reported as 0. *)
let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let to_json r =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" r.correct
    r.attempted r.failed
    (String.concat ", "
       (List.map
          (fun x ->
            Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (Msutil.Json.quote x.name) (num x.value)
              (Msutil.Json.quote x.unit_))
          r.metrics))

(* VmHWM (peak resident set) of a process, in MB. *)
let peak_rss_mb pid =
  let path = if pid = 0 then "/proc/self/status" else Printf.sprintf "/proc/%d/status" pid in
  match open_in path with
  | exception Sys_error _ -> 0.0
  | ic ->
    let rec go () =
      match input_line ic with
      | exception End_of_file -> 0.0
      | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %f kB" (fun kb -> kb /. 1024.0)
      | _ -> go ()
    in
    let v = go () in
    close_in ic;
    v
