(** Structured diagnostics produced by the configuration linter.

    Every finding carries a stable code (MS-Exxx for errors, MS-Wxxx
    for warnings, MS-Ixxx for informational notes), a severity, an
    optional device and an optional object location ("route-map EDGE_IN
    clause 20").  Codes are part of the tool's interface: tests and
    operators key on them, so they never change meaning. *)

type severity = Error | Warning | Info

type t = {
  code : string;
  severity : severity;
  device : string option;  (** [None] for network-level findings *)
  obj : string option;  (** e.g. "prefix-list INTERNAL_SPACE entry 3" *)
  message : string;
}

let severity_to_string = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

(* Lower rank = more severe; used both for sorting and exit codes. *)
let severity_rank = function Error -> 0 | Warning -> 1 | Info -> 2

let make ~code ~severity ?device ?obj fmt =
  Printf.ksprintf (fun message -> { code; severity; device; obj; message }) fmt

let compare a b =
  let c = Stdlib.compare (severity_rank a.severity) (severity_rank b.severity) in
  if c <> 0 then c
  else
    let c = Stdlib.compare a.device b.device in
    if c <> 0 then c
    else
      let c = Stdlib.compare a.code b.code in
      if c <> 0 then c else Stdlib.compare (a.obj, a.message) (b.obj, b.message)

let max_severity = function
  | [] -> None
  | d :: rest ->
    Some
      (List.fold_left
         (fun acc x -> if severity_rank x.severity < severity_rank acc then x.severity else acc)
         d.severity rest)

let count sev diags = List.length (List.filter (fun d -> d.severity = sev) diags)

let is_error d = d.severity = Error

(* -- text rendering ------------------------------------------------------------- *)

let to_string d =
  let where = match d.device with Some dev -> dev | None -> "network" in
  let obj = match d.obj with Some o -> Printf.sprintf " (%s)" o | None -> "" in
  Printf.sprintf "%s: %s [%s] %s%s" where (severity_to_string d.severity) d.code d.message obj

let render_text diags =
  let b = Buffer.create 256 in
  List.iter
    (fun d ->
      Buffer.add_string b (to_string d);
      Buffer.add_char b '\n')
    diags;
  Buffer.add_string b
    (Printf.sprintf "%d error(s), %d warning(s), %d info\n" (count Error diags)
       (count Warning diags) (count Info diags));
  Buffer.contents b

(* -- JSON rendering ------------------------------------------------------------- *)

(* Escaping lives in the shared Msutil.Json module so the lint
   diagnostics, the verification reports and the bench writers cannot
   drift apart. *)
let to_json d =
  Printf.sprintf
    "{\"code\":\"%s\",\"severity\":\"%s\",\"device\":%s,\"object\":%s,\"message\":\"%s\"}"
    (Msutil.Json.escape d.code)
    (severity_to_string d.severity)
    (Msutil.Json.opt d.device) (Msutil.Json.opt d.obj) (Msutil.Json.escape d.message)

let render_json diags =
  Printf.sprintf
    "{\"diagnostics\":[%s],\"summary\":{\"errors\":%d,\"warnings\":%d,\"infos\":%d}}\n"
    (String.concat "," (List.map to_json diags))
    (count Error diags) (count Warning diags) (count Info diags)

(* -- SARIF 2.1.0 rendering ------------------------------------------------------ *)

(* One-line titles for the stable codes, used as SARIF rule
   shortDescriptions (the README carries the same table in prose).
   A code missing here still renders — the rule just reuses its id. *)
let known_codes =
  [
    ("MS-E001", "reference to an undefined route-map");
    ("MS-E002", "reference to an undefined prefix-list");
    ("MS-E003", "reference to an undefined access-list");
    ("MS-E301", "BGP remote-as disagrees with the neighbor's configured AS");
    ("MS-E302", "BGP neighbor address belongs to a device that runs no BGP");
    ("MS-E303", "two interfaces of one device share a subnet");
    ("MS-E304", "BGP neighbor address is one of the device's own interfaces");
    ("MS-E305", "several devices share one hostname");
    ("MS-W101", "route-map defined but never applied");
    ("MS-W102", "prefix-list defined but never matched");
    ("MS-W103", "access-list defined but never applied");
    ("MS-W201", "prefix-list entry can never match");
    ("MS-W202", "access-list entry shadowed by an earlier entry");
    ("MS-W203", "route-map clause can never match");
    ("MS-W204", "route-map clause unreachable");
    ("MS-W301", "one-sided BGP session");
    ("MS-W302", "router-id configured on several devices");
    ("MS-W303", "iBGP group neither fully meshed nor covered by a route reflector");
    ("MS-W304", "OSPF network statement matches no interface address");
    ("MS-W305", "BGP neighbor address not on any connected subnet");
    ("MS-W401", "near-symmetry broken: device differs from its topological role peers");
  ]

let sarif_level = function Error -> "error" | Warning -> "warning" | Info -> "note"

(* Minimal but valid SARIF 2.1.0: one run, one driver, stable rule ids,
   one result per diagnostic.  [uri] names the analyzed configuration
   file so CI annotation surfaces have an artifact to attach to. *)
let render_sarif ?(uri = "network.cfg") diags =
  let q = Msutil.Json.quote in
  let rule_ids =
    List.sort_uniq Stdlib.compare (List.map (fun d -> (d.code, d.severity)) diags)
  in
  let rules =
    List.map
      (fun (code, sev) ->
        let title =
          match List.assoc_opt code known_codes with Some t -> t | None -> code
        in
        Printf.sprintf
          "{\"id\":%s,\"shortDescription\":{\"text\":%s},\"defaultConfiguration\":{\"level\":%s}}"
          (q code) (q title) (q (sarif_level sev)))
      rule_ids
  in
  let results =
    List.map
      (fun d ->
        let logical =
          match (d.device, d.obj) with
          | Some dev, Some o -> Some (dev ^ "/" ^ o)
          | Some dev, None -> Some dev
          | None, Some o -> Some o
          | None, None -> None
        in
        let location =
          Printf.sprintf
            "{\"physicalLocation\":{\"artifactLocation\":{\"uri\":%s}}%s}"
            (q uri)
            (match logical with
             | Some l ->
               Printf.sprintf ",\"logicalLocations\":[{\"fullyQualifiedName\":%s}]" (q l)
             | None -> "")
        in
        Printf.sprintf
          "{\"ruleId\":%s,\"level\":%s,\"message\":{\"text\":%s},\"locations\":[%s]}"
          (q d.code)
          (q (sarif_level d.severity))
          (q d.message) location)
      diags
  in
  Printf.sprintf
    "{\"$schema\":\"https://json.schemastore.org/sarif-2.1.0.json\",\"version\":\"2.1.0\",\"runs\":[{\"tool\":{\"driver\":{\"name\":\"minesweeper-lint\",\"rules\":[%s]}},\"results\":[%s]}]}\n"
    (String.concat "," rules)
    (String.concat "," results)
