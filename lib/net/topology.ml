type endpoint = { device : string; interface : string }
type link = { a : endpoint; b : endpoint }

module Smap = Map.Make (String)

(* [edges] holds the links newest first.  [incident] indexes them by
   device (each device's links, oldest first); it is built in one pass
   over [edges] the first time a per-device query needs it, and every
   constructor that changes [edges] starts a fresh one, so a fold of
   [add_link] builds no index at all. *)
type t = {
  devs : unit Smap.t;
  edges : link list;
  count : int;
  incident : (string, link list) Hashtbl.t Lazy.t;
}

let index count edges =
  lazy
    (let tbl = Hashtbl.create (max 16 count) in
     let add d l =
       Hashtbl.replace tbl d (l :: Option.value ~default:[] (Hashtbl.find_opt tbl d))
     in
     List.iter
       (fun l ->
         add l.a.device l;
         add l.b.device l)
       edges;
     tbl)

let make devs edges count = { devs; edges; count; incident = index count edges }
let empty = make Smap.empty [] 0
let add_device t name = { t with devs = Smap.add name () t.devs }

let link_equal l1 l2 =
  (l1.a = l2.a && l1.b = l2.b) || (l1.a = l2.b && l1.b = l2.a)

let add_link t link =
  if link.a.device = link.b.device then invalid_arg "Topology.add_link: self-link";
  let t = add_device (add_device t link.a.device) link.b.device in
  (* Idempotent, either orientation: explicit [link] lines and subnet
     inference may both produce the same link. *)
  if List.exists (link_equal link) t.edges then t
  else make t.devs (link :: t.edges) (t.count + 1)

let of_links links =
  (* a link's key is its endpoint pair in a fixed orientation *)
  let seen = Hashtbl.create 64 in
  let devs, edges, count =
    List.fold_left
      (fun ((devs, edges, count) as acc) l ->
        if l.a.device = l.b.device then invalid_arg "Topology.of_links: self-link";
        let key = if compare l.a l.b <= 0 then (l.a, l.b) else (l.b, l.a) in
        if Hashtbl.mem seen key then acc
        else begin
          Hashtbl.add seen key ();
          (Smap.add l.a.device () (Smap.add l.b.device () devs), l :: edges, count + 1)
        end)
      (Smap.empty, [], 0) links
  in
  make devs edges count

let devices t = List.map fst (Smap.bindings t.devs)
let links t = List.rev t.edges
let has_device t name = Smap.mem name t.devs

let incident t name =
  Option.value ~default:[] (Hashtbl.find_opt (Lazy.force t.incident) name)

let neighbors t name =
  List.map
    (fun l ->
      if l.a.device = name then (l.a.interface, l.b.device, l.b.interface)
      else (l.b.interface, l.a.device, l.a.interface))
    (incident t name)

(* Two links may share an endpoint: the most recently added one wins. *)
let peer t name iface =
  List.fold_left
    (fun found l ->
      if l.a.device = name && l.a.interface = iface then Some (l.b.device, l.b.interface)
      else if l.b.device = name && l.b.interface = iface then Some (l.a.device, l.a.interface)
      else found)
    None (incident t name)

let restrict t ~keep =
  let edges = List.filter (fun l -> keep l.a.device && keep l.b.device) t.edges in
  make (Smap.filter (fun d () -> keep d) t.devs) edges (List.length edges)

let degree t name = List.length (incident t name)
let num_devices t = Smap.cardinal t.devs
let num_links t = t.count
