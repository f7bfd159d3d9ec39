type action = Receive | Forward of string | Forward_external of string | Discard

type t = {
  prefix : Net.Prefix.t;
  proto : Config.Ast.protocol;
  ad : int;
  lp : int;
  metric : int;
  med : int;
  rid : int;
  bgp_internal : bool;
  as_path : int list;
  communities : Net.Community.Set.t;
  action : action;
}

let attribute (f : Config.Semantics.attribute) r =
  match f with
  | Admin_distance -> r.ad
  | Local_pref -> r.lp
  | Metric -> r.metric
  | Med -> r.med
  | Internal -> Bool.to_int r.bgp_internal
  | Router_id -> r.rid

let pp_action fmt = function
  | Receive -> Format.pp_print_string fmt "receive"
  | Forward d -> Format.fprintf fmt "fwd %s" d
  | Forward_external n -> Format.fprintf fmt "fwd-ext %s" n
  | Discard -> Format.pp_print_string fmt "discard"

let pp fmt r =
  Format.fprintf fmt "%a [%s ad=%d lp=%d metric=%d med=%d%s] -> %a" Net.Prefix.pp r.prefix
    (Config.Ast.protocol_to_string r.proto)
    r.ad r.lp r.metric r.med
    (if r.bgp_internal then " ibgp" else "")
    pp_action r.action
