type t = { network : Ipv4.t; length : int }

let mask_of_length len = if len = 0 then 0 else (Ipv4.max lsr (32 - len)) lsl (32 - len)

let make addr len =
  if len < 0 || len > 32 then invalid_arg "Prefix.make: length out of range";
  { network = addr land mask_of_length len; length = len }

let of_string_opt s =
  match String.index_opt s '/' with
  | None -> None
  | Some i ->
    let addr = String.sub s 0 i in
    let len = String.sub s (i + 1) (String.length s - i - 1) in
    (match (Ipv4.of_string_opt addr, int_of_string_opt len) with
     | Some addr, Some len when len >= 0 && len <= 32 -> Some (make addr len)
     | _ -> None)

let of_string s =
  match of_string_opt s with
  | Some p -> p
  | None -> invalid_arg (Printf.sprintf "Prefix.of_string: %S" s)

let to_string p = Printf.sprintf "%s/%d" (Ipv4.to_string p.network) p.length
let pp fmt p = Format.pp_print_string fmt (to_string p)
let compare a b =
  let c = Int.compare a.network b.network in
  if c <> 0 then c else Int.compare a.length b.length

let equal a b = a.network = b.network && a.length = b.length
let network p = p.network
let length p = p.length
let first p = p.network
let last p = p.network lor (Ipv4.max lsr p.length)
let contains p ip = ip land mask_of_length p.length = p.network
let subset p q = q.length <= p.length && contains q p.network
let overlaps p q = subset p q || subset q p
let host ip = make ip 32

let supernet p len =
  if len > p.length then invalid_arg "Prefix.supernet: longer than prefix";
  make p.network len

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Set = Set.Make (Ord)
module Map = Map.Make (Ord)
