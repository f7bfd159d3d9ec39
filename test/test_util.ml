(* Tests of the shared JSON string escaping (Msutil.Json) — the one
   implementation behind lint --format json/sarif, verify --format json
   and every bench writer — plus sanity checks of the SARIF rendering
   built on it. *)

module D = Analysis.Diagnostic

let test_escape_plain () =
  Alcotest.(check string) "identity" "hello" (Msutil.Json.escape "hello");
  Alcotest.(check string) "empty" "" (Msutil.Json.escape "")

let test_escape_specials () =
  Alcotest.(check string) "quote" "a\\\"b" (Msutil.Json.escape "a\"b");
  Alcotest.(check string) "backslash" "a\\\\b" (Msutil.Json.escape "a\\b");
  Alcotest.(check string) "newline" "a\\nb" (Msutil.Json.escape "a\nb");
  Alcotest.(check string) "cr" "a\\rb" (Msutil.Json.escape "a\rb");
  Alcotest.(check string) "tab" "a\\tb" (Msutil.Json.escape "a\tb");
  Alcotest.(check string) "backspace" "a\\bb" (Msutil.Json.escape "a\bb");
  Alcotest.(check string) "formfeed" "a\\fb" (Msutil.Json.escape "a\012b")

let test_escape_control () =
  Alcotest.(check string) "NUL" "\\u0000" (Msutil.Json.escape "\000");
  Alcotest.(check string) "ESC" "\\u001b" (Msutil.Json.escape "\027");
  (* bytes >= 0x20 pass through untouched, including 8-bit ones *)
  Alcotest.(check string) "high byte" "\xc3\xa9" (Msutil.Json.escape "\xc3\xa9")

let test_quote_and_opt () =
  Alcotest.(check string) "quote wraps" "\"a\\\"b\"" (Msutil.Json.quote "a\"b");
  Alcotest.(check string) "opt none" "null" (Msutil.Json.opt None);
  Alcotest.(check string) "opt some" "\"x\"" (Msutil.Json.opt (Some "x"))

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* the verification report renderer escapes through the shared
   implementation: a hostile label comes out exactly as Msutil.Json
   escapes it *)
let test_shared_everywhere () =
  let nasty = "a\"b\\c\nd" in
  let module R = Minesweeper.Verify.Report in
  let r = R.v nasty R.Verified in
  Alcotest.(check bool)
    "verify report escaping is the shared escaping" true
    (contains ~needle:("\"label\":\"" ^ Msutil.Json.escape nasty ^ "\"") (R.to_json r))

let sample_diags () =
  [
    D.make ~code:"MS-E101" ~severity:D.Error ~device:"r1" ~obj:"route-map \"RM\""
      "undefined route-map";
    D.make ~code:"MS-W401" ~severity:D.Warning ~device:"core_3"
      "near-symmetry broken";
  ]

let test_sarif_shape () =
  let s = D.render_sarif ~uri:"net.cfg" (sample_diags ()) in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("contains " ^ needle) true (contains ~needle s))
    [
      "\"version\":\"2.1.0\"";
      "sarif-2.1.0.json";
      "\"ruleId\":\"MS-E101\"";
      "\"ruleId\":\"MS-W401\"";
      "\"level\":\"error\"";
      "\"level\":\"warning\"";
      "\"uri\":\"net.cfg\"";
      (* the device/object location and the escaped quotes inside it *)
      "route-map \\\"RM\\\"";
      "\"fullyQualifiedName\":\"core_3\"";
    ]

let test_sarif_rules_deduped () =
  (* two findings with one code produce a single rule entry *)
  let two =
    [
      D.make ~code:"MS-W401" ~severity:D.Warning ~device:"a" "x";
      D.make ~code:"MS-W401" ~severity:D.Warning ~device:"b" "y";
    ]
  in
  let s = D.render_sarif two in
  let needle = "\"id\":\"" in
  let nl = String.length needle in
  let count_rule =
    let rec go i acc =
      if i + nl > String.length s then acc
      else if String.sub s i nl = needle then go (i + nl) (acc + 1)
      else go (i + 1) acc
    in
    go 0 0
  in
  Alcotest.(check int) "one rule" 1 count_rule;
  Alcotest.(check bool) "two results" true (contains ~needle:"\"results\":[" s)

let test_sarif_empty () =
  let s = D.render_sarif [] in
  Alcotest.(check bool) "valid empty run" true (contains ~needle:"\"results\":[]" s)

(* --- Vec: the SAT core's growable int array ------------------------------- *)

module V = Smt.Vec

let test_vec_basics () =
  let v = V.create () in
  Alcotest.(check bool) "empty" true (V.is_empty v);
  for i = 0 to 99 do
    V.push v i
  done;
  Alcotest.(check int) "size" 100 (V.size v);
  Alcotest.(check int) "len field" 100 v.V.len;
  Alcotest.(check int) "get" 42 (V.get v 42);
  V.set v 42 7;
  Alcotest.(check int) "set" 7 (V.get v 42);
  Alcotest.(check int) "set visible in data" 7 v.V.data.(42);
  Alcotest.(check int) "pop" 99 (V.pop v);
  Alcotest.(check int) "size after pop" 99 (V.size v);
  V.shrink v 10;
  Alcotest.(check int) "size after shrink" 10 (V.size v);
  Alcotest.(check int) "kept prefix" 9 (V.get v 9);
  (match V.get v 10 with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "get past a shrink must fail");
  V.clear v;
  Alcotest.(check bool) "cleared" true (V.is_empty v);
  (match V.pop v with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "pop on empty must fail");
  (* growth keeps every element *)
  let g = V.create ~capacity:1 () in
  for i = 0 to 1000 do
    V.push g (i * 7)
  done;
  Alcotest.(check bool) "capacity covers length" true (Array.length g.V.data >= g.V.len);
  Alcotest.(check (list int)) "grown contents" (List.init 1001 (fun i -> i * 7)) (V.to_list g);
  let cap = Array.length g.V.data in
  V.grow g;
  Alcotest.(check int) "grow doubles" (2 * cap) (Array.length g.V.data);
  Alcotest.(check int) "grow keeps length" 1001 (V.size g)

let test_vec_unsafe_accessors () =
  (* In-bounds behavior must be identical to the checked accessors;
     the tests also run with MS_VEC_DEBUG=1 (see test/dune), so both
     configurations are covered. *)
  let v = V.create () in
  for i = 0 to 999 do
    V.push v (i * 3)
  done;
  for i = 0 to 999 do
    if V.unsafe_get v i <> V.get v i then Alcotest.failf "unsafe_get mismatch at %d" i
  done;
  V.unsafe_set v 500 (-9);
  Alcotest.(check int) "unsafe_set visible to get" (-9) (V.get v 500);
  (* Out-of-bounds raises only when the debug flag was set at startup;
     a slot freed by [shrink] counts as out of bounds. *)
  if V.debug then begin
    (match V.unsafe_get v 1000 with
     | exception Invalid_argument _ -> ()
     | _ -> Alcotest.fail "debug mode should bounds-check unsafe_get");
    (match V.unsafe_set v (-1) 0 with
     | exception Invalid_argument _ -> ()
     | () -> Alcotest.fail "debug mode should bounds-check unsafe_set");
    V.shrink v 10;
    match V.unsafe_get v 10 with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "debug mode should reject a slot freed by shrink"
  end

let test_vec_blit () =
  let src = V.create () in
  for i = 0 to 9 do
    V.push src i
  done;
  (* overwrite inside dst *)
  let dst = V.create () in
  for _ = 0 to 4 do
    V.push dst 100
  done;
  V.blit src 2 dst 1 3;
  Alcotest.(check (list int)) "overwrite" [ 100; 2; 3; 4; 100 ] (V.to_list dst);
  (* copy extending past dst's current size grows it *)
  V.blit src 0 dst 3 7;
  Alcotest.(check int) "grown" 10 (V.size dst);
  Alcotest.(check (list int)) "extended" [ 100; 2; 3; 0; 1; 2; 3; 4; 5; 6 ] (V.to_list dst);
  (* appending exactly at the end works; holes are rejected *)
  let fresh = V.create () in
  V.blit src 0 fresh 0 10;
  Alcotest.(check (list int)) "append to empty" (V.to_list src) (V.to_list fresh);
  (match V.blit src 0 fresh 11 1 with
   | exception Invalid_argument _ -> ()
   | () -> Alcotest.fail "blit must not create holes");
  (* bad source ranges are rejected *)
  (match V.blit src 8 fresh 0 3 with
   | exception Invalid_argument _ -> ()
   | () -> Alcotest.fail "source overrun");
  match V.blit src 0 fresh 0 (-1) with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "negative length"

let test_vec_swap_remove_sort () =
  let v = V.create () in
  List.iter (V.push v) [ 5; 1; 4; 2; 3 ];
  V.swap_remove v 1;
  Alcotest.(check int) "size" 4 (V.size v);
  V.sort_in_place compare v;
  Alcotest.(check (list int)) "sorted remainder" [ 2; 3; 4; 5 ] (V.to_list v)

(* Model check: a [Vec] and an int list stay equal under random
   operation sequences.  A small initial capacity and runs of pushes
   make most sequences cross several growth boundaries; [clear],
   [shrink] and [pop] leave stale ints in the freed slots, which a later
   push or blit must overwrite. *)
type vec_op =
  | Push of int
  | Push_run of int
  | Pop
  | Shrink of int
  | Clear
  | Blit of int * int * int
  | Swap_remove of int

let show_vec_op = function
  | Push x -> Printf.sprintf "push %d" x
  | Push_run n -> Printf.sprintf "push_run %d" n
  | Pop -> "pop"
  | Shrink n -> Printf.sprintf "shrink %d" n
  | Clear -> "clear"
  | Blit (s, d, n) -> Printf.sprintf "blit %d %d %d" s d n
  | Swap_remove i -> Printf.sprintf "swap_remove %d" i

let vec_op_gen =
  let open QCheck.Gen in
  frequency
    [
      (6, map (fun x -> Push x) (int_range (-1000) 1000));
      (2, map (fun n -> Push_run n) (int_range 1 40));
      (3, return Pop);
      (2, map (fun n -> Shrink n) (int_range 0 64));
      (1, return Clear);
      (2, map3 (fun s d n -> Blit (s, d, n)) (int_range 0 64) (int_range 0 64) (int_range 0 32));
      (2, map (fun i -> Swap_remove i) (int_range 0 64));
    ]

(* the list-side meaning of each operation; [None] where [Vec] must
   raise [Invalid_argument] and leave the vector unchanged *)
let model_step l = function
  | Push x -> Some (l @ [ x ])
  | Push_run n -> Some (l @ List.init n (fun k -> (1000 * List.length l) + k))
  | Pop -> if l = [] then None else Some (List.filteri (fun i _ -> i < List.length l - 1) l)
  | Shrink n -> if n > List.length l then None else Some (List.filteri (fun i _ -> i < n) l)
  | Clear -> Some []
  | Blit (spos, dpos, len) ->
    let n = List.length l in
    if spos + len > n || dpos > n then None
    else begin
      let a = Array.of_list l in
      let out = Array.make (max n (dpos + len)) 0 in
      Array.blit a 0 out 0 n;
      Array.blit a spos out dpos len;
      Some (Array.to_list out)
    end
  | Swap_remove i ->
    let n = List.length l in
    if i >= n then None
    else begin
      let a = Array.of_list l in
      a.(i) <- a.(n - 1);
      Some (List.filteri (fun k _ -> k < n - 1) (Array.to_list a))
    end

let vec_step v = function
  | Push x -> V.push v x
  | Push_run n ->
    let base = 1000 * V.size v in
    for k = 0 to n - 1 do
      V.push v (base + k)
    done
  | Pop -> ignore (V.pop v)
  | Shrink n -> V.shrink v n
  | Clear -> V.clear v
  | Blit (spos, dpos, len) -> V.blit v spos v dpos len
  | Swap_remove i -> V.swap_remove v i

let test_vec_model =
  QCheck.Test.make ~name:"vec matches an int list model" ~count:500
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_vec_op ops))
       QCheck.Gen.(list_size (int_range 1 120) vec_op_gen))
    (fun ops ->
      let v = V.create ~capacity:1 () in
      let _ =
        List.fold_left
          (fun l op ->
            let l' =
              match (model_step l op, vec_step v op) with
              | Some l', () -> l'
              | None, () -> QCheck.Test.fail_reportf "%s should have raised" (show_vec_op op)
              | exception Invalid_argument _ -> (
                match model_step l op with
                | None -> l
                | Some _ -> QCheck.Test.fail_reportf "%s raised" (show_vec_op op))
            in
            if V.to_list v <> l' then
              QCheck.Test.fail_reportf "after %s: vec and model differ" (show_vec_op op);
            if V.size v <> List.length l' || Array.length v.V.data < v.V.len then
              QCheck.Test.fail_reportf "after %s: bad length or capacity" (show_vec_op op);
            l')
          [] ops
      in
      true)

let () =
  Alcotest.run "util"
    [
      ( "json",
        [
          Alcotest.test_case "plain strings" `Quick test_escape_plain;
          Alcotest.test_case "specials" `Quick test_escape_specials;
          Alcotest.test_case "control chars" `Quick test_escape_control;
          Alcotest.test_case "quote and opt" `Quick test_quote_and_opt;
          Alcotest.test_case "shared by verify" `Quick test_shared_everywhere;
        ] );
      ( "sarif",
        [
          Alcotest.test_case "shape" `Quick test_sarif_shape;
          Alcotest.test_case "rules deduped" `Quick test_sarif_rules_deduped;
          Alcotest.test_case "empty" `Quick test_sarif_empty;
        ] );
      ( "vec",
        [
          Alcotest.test_case "basics" `Quick test_vec_basics;
          Alcotest.test_case "unsafe accessors" `Quick test_vec_unsafe_accessors;
          Alcotest.test_case "blit" `Quick test_vec_blit;
          Alcotest.test_case "swap_remove and sort" `Quick test_vec_swap_remove_sort;
          QCheck_alcotest.to_alcotest test_vec_model;
        ] );
    ]
