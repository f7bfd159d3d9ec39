(** Semantic dead-code detection, using the prefix arithmetic of
    {!Net.Prefix}.  Every rule here is sound with respect to the
    first-match semantics shared by {!Config.Ast} (concrete) and the
    SMT translation in the encoder: a flagged entry or clause can never
    decide the outcome, for any route or packet.

    Codes:
    - MS-W201: prefix-list entry dead (subsumed by an earlier entry, or
      its ge/le range is empty)
    - MS-W202: ACL entry shadowed by an earlier entry
    - MS-W203: route-map clause can never match (prefix-list undefined,
      empty, or unable to permit anything)
    - MS-W204: route-map clause unreachable (an earlier clause matches
      everything) *)

module A = Config.Ast
module D = Diagnostic
module P = Net.Prefix

(* Effective prefix-length range of an entry, mirroring
   [Ast.prefix_list_entry_matches] and [Filter.entry_match]. *)
let eff_range (e : A.prefix_list_entry) =
  let base = P.length e.A.pl_prefix in
  match (e.A.pl_ge, e.A.pl_le) with
  | None, None -> (base, base)
  | Some g, None -> (g, 32)
  | None, Some l -> (base, l)
  | Some g, Some l -> (g, l)

let range_empty e =
  let g, l = eff_range e in
  g > l || g > 32 || l < 0

(* [subsumes e1 e2]: every prefix matched by [e2] is matched by [e1],
   so when [e1] appears earlier, [e2] never decides.  Sound (but
   incomplete): single-entry coverage only. *)
let subsumes (e1 : A.prefix_list_entry) (e2 : A.prefix_list_entry) =
  let g1, l1 = eff_range e1 and g2, l2 = eff_range e2 in
  g1 <= g2 && l1 >= l2 && P.subset e2.A.pl_prefix e1.A.pl_prefix

(** Indices of prefix-list entries that can never decide. *)
let dead_prefix_entries (pl : A.prefix_list) =
  let entries = Array.of_list pl.A.pl_entries in
  let dead = ref [] in
  Array.iteri
    (fun i e ->
      let covered () =
        let rec earlier j =
          j < i && ((not (List.mem j !dead)) && subsumes entries.(j) e || earlier (j + 1))
        in
        earlier 0
      in
      if range_empty e || covered () then dead := i :: !dead)
    entries;
  List.rev !dead

(** Indices of ACL entries shadowed by an earlier entry. *)
let shadowed_acl_entries (acl : A.acl) =
  let entries = Array.of_list acl.A.acl_entries in
  let dead = ref [] in
  Array.iteri
    (fun i (e : A.acl_entry) ->
      let rec earlier j =
        j < i
        && ((not (List.mem j !dead)) && P.subset e.A.acl_dst entries.(j).A.acl_dst
           || earlier (j + 1))
      in
      if earlier 0 then dead := i :: !dead)
    entries;
  List.rev !dead

(* Can this prefix-list permit at least one prefix?  [false] means a
   route-map match on it is statically unsatisfiable (the encoder's
   [Filter.match_cond] likewise yields false for an undefined list). *)
let can_permit (dev : A.device) name =
  match A.find_prefix_list dev name with
  | None -> false
  | Some pl ->
    let dead = dead_prefix_entries pl in
    List.exists
      (fun (i, (e : A.prefix_list_entry)) -> e.A.pl_action = A.Permit && not (List.mem i dead))
      (List.mapi (fun i e -> (i, e)) pl.A.pl_entries)

(* A clause with no match conditions selects every route. *)
let matches_everything (cl : A.rm_clause) = cl.A.rm_matches = []

let clause_never_fires (dev : A.device) (cl : A.rm_clause) =
  List.exists
    (function A.Match_prefix_list name -> not (can_permit dev name) | A.Match_community _ -> false)
    cl.A.rm_matches

(** [(index, reason)] of every dead clause; [`Never] = its matches are
    unsatisfiable, [`Unreachable] = an earlier clause matches all. *)
let dead_clauses (dev : A.device) (rm : A.route_map) =
  let _, dead =
    List.fold_left
      (fun (i, (terminal_seen, acc)) (cl : A.rm_clause) ->
        let acc' =
          if terminal_seen then (i, `Unreachable) :: acc
          else if clause_never_fires dev cl then (i, `Never) :: acc
          else acc
        in
        let terminal_seen =
          terminal_seen || (matches_everything cl && not (clause_never_fires dev cl))
        in
        (i + 1, (terminal_seen, acc')))
      (0, (false, []))
      rm.A.rm_clauses
    |> snd
  in
  List.rev dead

(* -- diagnostics ---------------------------------------------------------------- *)

let check_device (dev : A.device) =
  let d = dev.A.dev_name in
  let pl_diags =
    List.concat_map
      (fun (pl : A.prefix_list) ->
        List.map
          (fun i ->
            let e = List.nth pl.A.pl_entries i in
            let why = if range_empty e then "its ge/le range is empty" else "an earlier entry subsumes it" in
            D.make ~code:"MS-W201" ~severity:D.Warning ~device:d
              ~obj:(Printf.sprintf "prefix-list %s entry %d" pl.A.pl_name (i + 1))
              "entry %s %s can never match: %s"
              (match e.A.pl_action with A.Permit -> "permit" | A.Deny -> "deny")
              (P.to_string e.A.pl_prefix) why)
          (dead_prefix_entries pl))
      dev.A.dev_prefix_lists
  in
  let acl_diags =
    List.concat_map
      (fun (acl : A.acl) ->
        List.map
          (fun i ->
            let e = List.nth acl.A.acl_entries i in
            D.make ~code:"MS-W202" ~severity:D.Warning ~device:d
              ~obj:(Printf.sprintf "access-list %s entry %d" acl.A.acl_name (i + 1))
              "entry %s %s is shadowed by an earlier entry"
              (match e.A.acl_action with A.Permit -> "permit" | A.Deny -> "deny")
              (P.to_string e.A.acl_dst))
          (shadowed_acl_entries acl))
      dev.A.dev_acls
  in
  let rm_diags =
    List.concat_map
      (fun (rm : A.route_map) ->
        List.map
          (fun (i, reason) ->
            let cl = List.nth rm.A.rm_clauses i in
            match reason with
            | `Never ->
              D.make ~code:"MS-W203" ~severity:D.Warning ~device:d
                ~obj:(Printf.sprintf "route-map %s clause %d" rm.A.rm_name cl.A.rm_seq)
                "clause can never match (prefix-list permits nothing)"
            | `Unreachable ->
              D.make ~code:"MS-W204" ~severity:D.Warning ~device:d
                ~obj:(Printf.sprintf "route-map %s clause %d" rm.A.rm_name cl.A.rm_seq)
                "clause is unreachable: an earlier clause matches everything")
          (dead_clauses dev rm))
      dev.A.dev_route_maps
  in
  pl_diags @ acl_diags @ rm_diags

let check (net : A.network) = List.concat_map check_device net.A.net_devices
