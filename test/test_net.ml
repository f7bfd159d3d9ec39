(* Tests for IPv4 addresses, prefixes, communities and topologies. *)

module Ip = Net.Ipv4
module P = Net.Prefix
module C = Net.Community
module T = Net.Topology

let test_ipv4 () =
  Alcotest.(check string) "roundtrip" "10.1.2.3" (Ip.to_string (Ip.of_string "10.1.2.3"));
  Alcotest.(check int) "value" ((10 lsl 24) lor (1 lsl 16) lor (2 lsl 8) lor 3) (Ip.of_string "10.1.2.3");
  Alcotest.(check (option int)) "bad octet" None (Ip.of_string_opt "10.1.2.256");
  Alcotest.(check (option int)) "not an ip" None (Ip.of_string_opt "banana");
  Alcotest.(check (option int)) "too few" None (Ip.of_string_opt "10.1.2");
  Alcotest.(check int) "octet 0" 10 (Ip.octet (Ip.of_string "10.1.2.3") 0);
  Alcotest.(check int) "octet 3" 3 (Ip.octet (Ip.of_string "10.1.2.3") 3);
  Alcotest.(check string) "max" "255.255.255.255" (Ip.to_string Ip.max)

let test_prefix () =
  let p = P.of_string "10.1.2.3/24" in
  Alcotest.(check string) "masked" "10.1.2.0/24" (P.to_string p);
  Alcotest.(check bool) "contains inside" true (P.contains p (Ip.of_string "10.1.2.200"));
  Alcotest.(check bool) "contains outside" false (P.contains p (Ip.of_string "10.1.3.0"));
  Alcotest.(check string) "first" "10.1.2.0" (Ip.to_string (P.first p));
  Alcotest.(check string) "last" "10.1.2.255" (Ip.to_string (P.last p));
  let q = P.of_string "10.1.0.0/16" in
  Alcotest.(check bool) "subset" true (P.subset p q);
  Alcotest.(check bool) "not subset" false (P.subset q p);
  Alcotest.(check bool) "overlaps" true (P.overlaps q p);
  Alcotest.(check bool) "disjoint" false (P.overlaps p (P.of_string "10.2.0.0/16"));
  Alcotest.(check string) "supernet" "10.1.0.0/16" (P.to_string (P.supernet p 16));
  Alcotest.(check string) "host" "1.2.3.4/32" (P.to_string (P.host (Ip.of_string "1.2.3.4")));
  let all = P.of_string "0.0.0.0/0" in
  Alcotest.(check bool) "default contains" true (P.contains all (Ip.of_string "200.1.1.1"));
  Alcotest.(check string) "default last" "255.255.255.255" (Ip.to_string (P.last all))

let test_community () =
  let c = C.of_string "65000:100" in
  Alcotest.(check string) "roundtrip" "65000:100" (C.to_string c);
  Alcotest.(check bool) "bad" true (C.of_string_opt "65000" = None);
  Alcotest.(check bool) "out of range" true (C.of_string_opt "70000:1" = None)

let test_topology () =
  let link a ai b bi =
    { T.a = { T.device = a; interface = ai }; b = { T.device = b; interface = bi } }
  in
  let t = T.empty in
  let t = T.add_link t (link "R1" "e0" "R2" "e0") in
  let t = T.add_link t (link "R1" "e1" "R3" "e0") in
  Alcotest.(check (list string)) "devices" [ "R1"; "R2"; "R3" ] (T.devices t);
  Alcotest.(check int) "degree R1" 2 (T.degree t "R1");
  Alcotest.(check int) "degree R2" 1 (T.degree t "R2");
  (match T.peer t "R1" "e1" with
   | Some (d, i) ->
     Alcotest.(check string) "peer dev" "R3" d;
     Alcotest.(check string) "peer if" "e0" i
   | None -> Alcotest.fail "peer missing");
  Alcotest.(check bool) "no peer" true (T.peer t "R2" "e9" = None);
  Alcotest.check_raises "self link" (Invalid_argument "Topology.add_link: self-link") (fun () ->
      ignore (T.add_link t (link "R1" "e5" "R1" "e6")))

(* -- model-based topology test ---------------------------------------------- *)

(* The list-scan topology the indexed one replaced: the reference its
   every query must agree with, order and exceptions included. *)
module Ref = struct
  module Smap = Map.Make (String)

  type t = { devs : unit Smap.t; edges : T.link list }

  let empty = { devs = Smap.empty; edges = [] }
  let add_device t name = { t with devs = Smap.add name () t.devs }

  let link_equal (l1 : T.link) (l2 : T.link) =
    (l1.a = l2.a && l1.b = l2.b) || (l1.a = l2.b && l1.b = l2.a)

  let add_link t (link : T.link) =
    if link.a.device = link.b.device then invalid_arg "Topology.add_link: self-link";
    let t = add_device (add_device t link.a.device) link.b.device in
    if List.exists (link_equal link) t.edges then t else { t with edges = link :: t.edges }

  let devices t = List.map fst (Smap.bindings t.devs)
  let links t = List.rev t.edges
  let has_device t name = Smap.mem name t.devs

  let neighbors t name =
    List.filter_map
      (fun (l : T.link) ->
        if l.a.device = name then Some (l.a.interface, l.b.device, l.b.interface)
        else if l.b.device = name then Some (l.b.interface, l.a.device, l.a.interface)
        else None)
      (links t)

  let peer t name iface =
    List.find_map
      (fun (l : T.link) ->
        if l.a.device = name && l.a.interface = iface then Some (l.b.device, l.b.interface)
        else if l.b.device = name && l.b.interface = iface then Some (l.a.device, l.a.interface)
        else None)
      t.edges

  let restrict t ~keep =
    {
      devs = Smap.filter (fun d () -> keep d) t.devs;
      edges = List.filter (fun (l : T.link) -> keep l.a.device && keep l.b.device) t.edges;
    }

  let degree t name = List.length (neighbors t name)
  let num_devices t = Smap.cardinal t.devs
  let num_links t = List.length t.edges
end

module type TOPO = sig
  type t

  val devices : t -> string list
  val links : t -> T.link list
  val has_device : t -> string -> bool
  val neighbors : t -> string -> (string * string * string) list
  val peer : t -> string -> string -> (string * string) option
  val restrict : t -> keep:(string -> bool) -> t
  val degree : t -> string -> int
  val num_devices : t -> int
  val num_links : t -> int
end

(* Small name pools, so random sequences repeat links, in both
   orientations, and draw self-links. *)
let pool_devices = [ "R0"; "R1"; "R2"; "R3"; "R4"; "R5" ]
let pool_ifaces = [ "e0"; "e1"; "e2" ]

(* Everything a query can observe of a topology, as plain data. *)
module Observe (M : TOPO) = struct
  let local t =
    ( (M.devices t, M.links t, M.num_devices t, M.num_links t),
      List.map
        (fun d ->
          ( M.has_device t d,
            M.neighbors t d,
            M.degree t d,
            List.map (fun i -> M.peer t d i) pool_ifaces ))
        pool_devices )

  let all t =
    ( local t,
      List.map
        (fun gone -> local (M.restrict t ~keep:(fun d -> d <> gone)))
        [ "R0"; "R1"; "R5" ],
      local (M.restrict t ~keep:(fun d -> d < "R3")) )
end

module Obs_t = Observe (T)
module Obs_ref = Observe (Ref)

type op = Add_device of string | Add_link of T.link

let gen_op =
  let open QCheck.Gen in
  let name = oneofl pool_devices and iface = oneofl pool_ifaces in
  frequency
    [
      (1, map (fun d -> Add_device d) name);
      ( 6,
        map
          (fun (da, ia, db, ib) ->
            Add_link { T.a = { T.device = da; interface = ia }; b = { T.device = db; interface = ib } })
          (quad name iface name iface) );
    ]

let show_op = function
  | Add_device d -> "device " ^ d
  | Add_link l ->
    Printf.sprintf "link %s.%s--%s.%s" l.T.a.T.device l.T.a.T.interface l.T.b.T.device
      l.T.b.T.interface

(* A reversed copy of an earlier link is appended now and then, so
   reversed duplicates appear even when the pools alone would miss. *)
let arb_ops =
  let open QCheck.Gen in
  let gen =
    list_size (int_range 0 40) gen_op >>= fun ops ->
    let links = List.filter_map (function Add_link l -> Some l | Add_device _ -> None) ops in
    (if links = [] then return []
     else
       list_size (int_range 0 5)
         (map (fun l -> Add_link { T.a = l.T.b; b = l.T.a }) (oneofl links)))
    >>= fun reversed ->
    shuffle_l (ops @ reversed)
  in
  QCheck.make ~print:(fun ops -> String.concat "; " (List.map show_op ops)) gen

let outcome f = match f () with t -> Ok t | exception Invalid_argument m -> Error m

(* Apply every op to both; after each step both must agree on every
   query (forcing the index at intermediate states) and on whether and
   how the step raised. *)
let prop_topology_model =
  QCheck.Test.make ~name:"indexed topology matches the list-scan reference" ~count:300 arb_ops
    (fun ops ->
      let step (t, r) op =
        let t', r' =
          match op with
          | Add_device d -> (Ok (T.add_device t d), Ok (Ref.add_device r d))
          | Add_link l -> (outcome (fun () -> T.add_link t l), outcome (fun () -> Ref.add_link r l))
        in
        match (t', r') with
        | Ok t', Ok r' ->
          if Obs_t.all t' <> Obs_ref.all r' then QCheck.Test.fail_reportf "diverged after %s" (show_op op);
          (t', r')
        | Error a, Error b when a = b -> (t, r)
        | _ -> QCheck.Test.fail_reportf "exceptions differ at %s" (show_op op)
      in
      ignore (List.fold_left step (T.empty, Ref.empty) ops);
      true)

(* [of_links] is the [add_link] fold, in one pass; both reject a
   self-link anywhere in the list.  Self-links are common in these
   lists, so the comparison runs on the list without them. *)
let prop_of_links_is_fold =
  QCheck.Test.make ~name:"of_links equals the add_link fold" ~count:300 arb_ops (fun ops ->
      let ls = List.filter_map (function Add_link l -> Some l | Add_device _ -> None) ops in
      let both ls =
        (outcome (fun () -> T.of_links ls), outcome (fun () -> List.fold_left T.add_link T.empty ls))
      in
      let raises_alike =
        match both ls with
        | Ok _, Ok _ | Error _, Error _ -> true
        | Ok _, Error _ | Error _, Ok _ -> false
      in
      let self (l : T.link) = l.a.device = l.b.device in
      match both (List.filter (fun l -> not (self l)) ls) with
      | Ok bulk, Ok fold -> raises_alike && Obs_t.all bulk = Obs_t.all fold
      | Ok _, Error _ | Error _, Ok _ | Error _, Error _ -> false)

let prop_prefix_contains_consistent =
  QCheck.Test.make ~name:"prefix contains first/last" ~count:300
    (QCheck.pair (QCheck.int_range 0 0xffffff) (QCheck.int_range 0 32))
    (fun (base, len) ->
      let p = P.make (base * 251) len in
      P.contains p (P.first p) && P.contains p (P.last p))

let prop_prefix_string_roundtrip =
  QCheck.Test.make ~name:"prefix string roundtrip" ~count:300
    (QCheck.pair (QCheck.int_range 0 0xffffff) (QCheck.int_range 0 32))
    (fun (base, len) ->
      let p = P.make (base * 65521) len in
      P.equal p (P.of_string (P.to_string p)))

let () =
  Alcotest.run "net"
    [
      ( "unit",
        [
          Alcotest.test_case "ipv4" `Quick test_ipv4;
          Alcotest.test_case "prefix" `Quick test_prefix;
          Alcotest.test_case "community" `Quick test_community;
          Alcotest.test_case "topology" `Quick test_topology;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_prefix_contains_consistent;
            prop_prefix_string_roundtrip;
            prop_topology_model;
            prop_of_links_is_fold;
          ] );
    ]
