(* Spans around the benchmark's calls into each layer of the verifier.

   A span has a name, a start and end time, its parent span and the
   request it belongs to.  Spans are kept in memory and written out at
   the end as Chrome trace-event JSON (load it in chrome://tracing or
   Perfetto).  A layer's self time is its span's duration minus the
   durations of its children.

   Some splits cannot be timed from outside a call: [Encode.build] runs
   the pre-flight lint and the symmetry reduction internally.  For those
   the benchmark registers an attribution thunk with the span; after the
   traced run, outside its timing, [attribute] re-runs the inner
   function on the same input and records the measured time as an
   estimated child span laid at the start of its parent. *)

type span = {
  id : int;
  parent : int;  (* -1 at top level *)
  name : string;
  req : int;  (* request id, -1 outside requests *)
  t0 : float;  (* seconds, Unix epoch *)
  mutable t1 : float;
  estimated : bool;
}

type t = {
  mutable spans : span list;  (* newest first *)
  mutable stack : span list;
  mutable next_id : int;
  mutable req : int;
  mutable pending : (span * (unit -> (string * float) list)) list;
      (* attribution thunks, newest first *)
  counters : (string, float) Hashtbl.t;
}

let now = Unix.gettimeofday

let create () =
  { spans = []; stack = []; next_id = 0; req = -1; pending = []; counters = Hashtbl.create 32 }

let open_span t name =
  let parent = match t.stack with s :: _ -> s.id | [] -> -1 in
  let s = { id = t.next_id; parent; name; req = t.req; t0 = now (); t1 = nan; estimated = false } in
  t.next_id <- t.next_id + 1;
  t.stack <- s :: t.stack;
  s

let close_span t s =
  s.t1 <- now ();
  t.stack <- List.tl t.stack;
  t.spans <- s :: t.spans

(* [span tr name f] runs [f] inside a span; with tracing off it is just
   [f ()].  [attr], when given, is applied to [f]'s result by
   {!attribute} after the traced run and returns (child name,
   milliseconds) pairs to record as estimated children of this span. *)
let span ?attr tr name f =
  match tr with
  | None -> f ()
  | Some t ->
    let s = open_span t name in
    let r = Fun.protect ~finally:(fun () -> close_span t s) f in
    (match attr with Some a -> t.pending <- (s, fun () -> a r) :: t.pending | None -> ());
    r

(* A request span: the network, destination or step every child span
   belongs to. *)
let request tr id f =
  match tr with
  | None -> f ()
  | Some t ->
    t.req <- id;
    Fun.protect ~finally:(fun () -> t.req <- -1) (fun () -> span tr "request" f)

let count tr name v =
  match tr with
  | None -> ()
  | Some t ->
    Hashtbl.replace t.counters name (v +. Option.value ~default:0.0 (Hashtbl.find_opt t.counters name))

let counter t name = Option.value ~default:0.0 (Hashtbl.find_opt t.counters name)

(* Keep the largest value seen under [name]. *)
let peak tr name v =
  match tr with
  | Some t when v > counter t name -> Hashtbl.replace t.counters name v
  | Some _ | None -> ()

let attribute t =
  List.iter
    (fun (parent, thunk) ->
      let cursor = ref parent.t0 in
      List.iter
        (fun (name, ms) ->
          let t0 = !cursor in
          cursor := t0 +. (ms /. 1000.0);
          let s =
            { id = t.next_id; parent = parent.id; name; req = parent.req; t0; t1 = !cursor;
              estimated = true }
          in
          t.spans <- s :: t.spans;
          t.next_id <- t.next_id + 1)
        (thunk ()))
    (List.rev t.pending);
  t.pending <- []

let dur_ms s = (s.t1 -. s.t0) *. 1000.0

(* Self time of every span, in ms, keyed by span id. *)
let self_times t =
  let child = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        let before = Option.value ~default:0.0 (Hashtbl.find_opt child s.parent) in
        Hashtbl.replace child s.parent (before +. dur_ms s))
    t.spans;
  fun s -> dur_ms s -. Option.value ~default:0.0 (Hashtbl.find_opt child s.id)

let named t name = List.rev (List.filter (fun s -> s.name = name) t.spans)

(* Share of the window [w0, w1] covered by layer spans: spans that are
   not request spans and whose parent is a request span or nothing. *)
let coverage t ~w0 ~w1 =
  let requests = Hashtbl.create 64 in
  List.iter (fun s -> if s.name = "request" then Hashtbl.replace requests s.id ()) t.spans;
  let covered =
    List.fold_left
      (fun acc s ->
        if s.name <> "request" && (not s.estimated) && s.t0 >= w0 && s.t1 <= w1
           && (s.parent < 0 || Hashtbl.mem requests s.parent)
        then acc +. (s.t1 -. s.t0)
        else acc)
      0.0 t.spans
  in
  if w1 > w0 then covered /. (w1 -. w0) else 0.0

let write_chrome t path =
  let base = List.fold_left (fun m s -> Float.min m s.t0) infinity t.spans in
  let us x = (x -. base) *. 1e6 in
  let oc = open_out path in
  output_string oc "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s{\"name\":%s,\"cat\":\"layer\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\
         \"args\":{\"id\":%d,\"parent\":%d,\"request\":%d,\"estimated\":%b}}\n"
        (if i = 0 then "" else ",")
        (Msutil.Json.quote s.name) (us s.t0) ((s.t1 -. s.t0) *. 1e6) s.id s.parent s.req s.estimated)
    (List.sort (fun a b -> compare a.t0 b.t0) t.spans);
  output_string oc "]}\n";
  close_out oc
