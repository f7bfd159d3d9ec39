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

(* --- Vec: the SAT core's growable array ----------------------------------- *)

module V = Smt.Vec

let test_vec_basics () =
  let v = V.create ~dummy:(-1) () in
  Alcotest.(check bool) "empty" true (V.is_empty v);
  for i = 0 to 99 do
    V.push v i
  done;
  Alcotest.(check int) "size" 100 (V.size v);
  Alcotest.(check int) "get" 42 (V.get v 42);
  V.set v 42 7;
  Alcotest.(check int) "set" 7 (V.get v 42);
  Alcotest.(check int) "last" 99 (V.last v);
  Alcotest.(check int) "pop" 99 (V.pop v);
  Alcotest.(check int) "size after pop" 99 (V.size v);
  V.shrink v 10;
  Alcotest.(check int) "size after shrink" 10 (V.size v);
  Alcotest.(check int) "kept prefix" 9 (V.get v 9);
  V.clear v;
  Alcotest.(check bool) "cleared" true (V.is_empty v)

let test_vec_unsafe_accessors () =
  (* In-bounds behavior must be identical to the checked accessors;
     the tests run with MS_VEC_DEBUG unset, so this also covers the
     release configuration the solver ships with. *)
  let v = V.create ~dummy:0 () in
  for i = 0 to 999 do
    V.push v (i * 3)
  done;
  for i = 0 to 999 do
    if V.unsafe_get v i <> V.get v i then Alcotest.failf "unsafe_get mismatch at %d" i
  done;
  V.unsafe_set v 500 (-9);
  Alcotest.(check int) "unsafe_set visible to get" (-9) (V.get v 500);
  (* Out-of-bounds raises only when the debug flag was set at startup;
     assert the flag's wiring is consistent either way. *)
  if V.debug then begin
    (match V.unsafe_get v 1000 with
     | exception Invalid_argument _ -> ()
     | _ -> Alcotest.fail "debug mode should bounds-check unsafe_get");
    match V.unsafe_set v (-1) 0 with
    | exception Invalid_argument _ -> ()
    | () -> Alcotest.fail "debug mode should bounds-check unsafe_set"
  end

let test_vec_blit () =
  let src = V.create ~dummy:(-1) () in
  for i = 0 to 9 do
    V.push src i
  done;
  (* overwrite inside dst *)
  let dst = V.create ~dummy:(-1) () in
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
  let fresh = V.create ~dummy:(-1) () in
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
  let v = V.create ~dummy:(-1) () in
  List.iter (V.push v) [ 5; 1; 4; 2; 3 ];
  V.swap_remove v 1;
  Alcotest.(check int) "size" 4 (V.size v);
  V.sort_in_place compare v;
  Alcotest.(check (list int)) "sorted remainder" [ 2; 3; 4; 5 ] (V.to_list v)

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
        ] );
    ]
