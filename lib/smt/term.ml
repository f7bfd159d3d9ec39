module Rat = Exactnum.Rat

type t = { id : int; node : node; sort : Sort.t }

and node =
  | True
  | False
  | Var of string
  | Not of t
  | And of t list
  | Or of t list
  | Implies of t * t
  | Iff of t * t
  | Ite of t * t * t
  | At_most of int * t list
  | Int_const of int
  | Rat_const of Rat.t
  | Add of t * t
  | Sub of t * t
  | Scale of Rat.t * t
  | Leq of t * t
  | Lt of t * t
  | Eq of t * t
  | Bv_const of int
  | Bv_and of t * t
  | Bv_ule of t * t

(* -- hash-consing ----------------------------------------------------------- *)

let node_equal n1 n2 =
  match (n1, n2) with
  | True, True | False, False -> true
  | Var a, Var b -> String.equal a b
  | Not a, Not b -> a == b
  | And l1, And l2 | Or l1, Or l2 ->
    List.length l1 = List.length l2 && List.for_all2 (fun a b -> a == b) l1 l2
  | Implies (a1, b1), Implies (a2, b2)
  | Iff (a1, b1), Iff (a2, b2)
  | Add (a1, b1), Add (a2, b2)
  | Sub (a1, b1), Sub (a2, b2)
  | Leq (a1, b1), Leq (a2, b2)
  | Lt (a1, b1), Lt (a2, b2)
  | Eq (a1, b1), Eq (a2, b2)
  | Bv_and (a1, b1), Bv_and (a2, b2)
  | Bv_ule (a1, b1), Bv_ule (a2, b2) -> a1 == a2 && b1 == b2
  | Ite (c1, t1, e1), Ite (c2, t2, e2) -> c1 == c2 && t1 == t2 && e1 == e2
  | At_most (k1, l1), At_most (k2, l2) ->
    k1 = k2 && List.length l1 = List.length l2 && List.for_all2 (fun a b -> a == b) l1 l2
  | Int_const a, Int_const b | Bv_const a, Bv_const b -> a = b
  | Rat_const a, Rat_const b -> Rat.equal a b
  | Scale (q1, a1), Scale (q2, a2) -> Rat.equal q1 q2 && a1 == a2
  | ( ( True | False | Var _ | Not _ | And _ | Or _ | Implies _ | Iff _ | Ite _ | At_most _
      | Int_const _ | Rat_const _ | Add _ | Sub _ | Scale _ | Leq _ | Lt _ | Eq _ | Bv_const _
      | Bv_and _ | Bv_ule _ ),
      _ ) -> false

let combine h1 h2 = (h1 * 65599) + h2

let node_hash n =
  match n with
  | True -> 1
  | False -> 2
  | Var s -> combine 3 (Hashtbl.hash s)
  | Not a -> combine 5 a.id
  | And l -> List.fold_left (fun acc x -> combine acc x.id) 7 l
  | Or l -> List.fold_left (fun acc x -> combine acc x.id) 11 l
  | Implies (a, b) -> combine 13 (combine a.id b.id)
  | Iff (a, b) -> combine 17 (combine a.id b.id)
  | Ite (c, a, b) -> combine 19 (combine c.id (combine a.id b.id))
  | At_most (k, l) -> List.fold_left (fun acc x -> combine acc x.id) (combine 23 k) l
  | Int_const n -> combine 29 (Hashtbl.hash n)
  | Rat_const q -> combine 31 (Hashtbl.hash (Rat.to_string q))
  | Add (a, b) -> combine 37 (combine a.id b.id)
  | Sub (a, b) -> combine 41 (combine a.id b.id)
  | Scale (q, a) -> combine 43 (combine (Hashtbl.hash (Rat.to_string q)) a.id)
  | Leq (a, b) -> combine 47 (combine a.id b.id)
  | Lt (a, b) -> combine 53 (combine a.id b.id)
  | Eq (a, b) -> combine 59 (combine a.id b.id)
  | Bv_const n -> combine 61 (Hashtbl.hash n)
  | Bv_and (a, b) -> combine 67 (combine a.id b.id)
  | Bv_ule (a, b) -> combine 71 (combine a.id b.id)

(* A weak set: the table does not keep its terms alive, so a term that
   nothing else references is reclaimed by the GC.  Ids come from a
   counter that only moves when a new term is inserted, so they stay
   unique for the process lifetime and are never reused. *)
module Table = Weak.Make (struct
  type nonrec t = t

  let equal a b = Sort.equal a.sort b.sort && node_equal a.node b.node
  let hash t = combine (node_hash t.node) (Hashtbl.hash t.sort)
end)

let table = Table.create 4096
let next_id = ref 0

let mk node sort =
  let candidate = { id = !next_id; node; sort } in
  let t = Table.merge table candidate in
  if t == candidate then incr next_id;
  t

let live_count () = Table.count table

let sort t = t.sort
let id t = t.id
let equal a b = a == b
let compare a b = Stdlib.compare a.id b.id
let hash t = t.id

(* -- boolean constructors --------------------------------------------------- *)

let tru = mk True Sort.Bool
let fls = mk False Sort.Bool
let bool_const b = if b then tru else fls

let require_sort what expected t =
  if not (Sort.equal t.sort expected) then
    invalid_arg
      (Printf.sprintf "Term.%s: expected sort %s, got %s" what (Sort.to_string expected)
         (Sort.to_string t.sort))

(* Live variables by name, to reject a name re-declared at another sort. *)
module Vars = Weak.Make (struct
  type nonrec t = t

  let name t = match t.node with Var s -> s | _ -> assert false
  let equal a b = String.equal (name a) (name b)
  let hash t = Hashtbl.hash (name t)
end)

let vars = Vars.create 512

let var name s =
  match Vars.find_opt vars { id = -1; node = Var name; sort = s } with
  | Some t ->
    if not (Sort.equal t.sort s) then
      invalid_arg
        (Printf.sprintf "Term.var: %s re-declared at sort %s (was %s)" name (Sort.to_string s)
           (Sort.to_string t.sort));
    t
  | None ->
    let t = mk (Var name) s in
    Vars.add vars t;
    t

let fresh_counter = ref 0

let fresh_var ?(prefix = "_t") s =
  incr fresh_counter;
  var (Printf.sprintf "%s!%d" prefix !fresh_counter) s

let not_ t =
  require_sort "not_" Sort.Bool t;
  match t.node with
  | True -> fls
  | False -> tru
  | Not inner -> inner
  | Var _ | And _ | Or _ | Implies _ | Iff _ | Ite _ | At_most _ | Leq _ | Lt _ | Eq _ | Bv_ule _
    -> mk (Not t) Sort.Bool
  | Int_const _ | Rat_const _ | Add _ | Sub _ | Scale _ | Bv_const _ | Bv_and _ ->
    (* unreachable: sort check above rejects non-Bool terms *)
    assert false

module Ids = Set.Make (Int)

(* Flatten, drop neutral elements, detect complementary pairs, dedupe. *)
let assemble_nary ~is_and terms =
  let unit = if is_and then tru else fls in
  let zero = if is_and then fls else tru in
  let seen = ref Ids.empty in
  let negs = ref Ids.empty in
  let short_circuit = ref false in
  let acc = ref [] in
  let add_member t =
    (match t.node with
     | Not inner ->
       if Ids.mem inner.id !seen then short_circuit := true
       else negs := Ids.add inner.id !negs
     | _ -> if Ids.mem t.id !negs then short_circuit := true);
    if (not !short_circuit) && not (Ids.mem t.id !seen) then begin
      seen := Ids.add t.id !seen;
      acc := t :: !acc
    end
  in
  let rec walk t =
    if not !short_circuit then begin
      require_sort "bool connective" Sort.Bool t;
      if t == zero then short_circuit := true
      else if t == unit then ()
      else begin
        match (t.node, is_and) with
        | And l, true | Or l, false -> List.iter walk l
        | _ -> add_member t
      end
    end
  in
  List.iter walk terms;
  if !short_circuit then zero
  else begin
    match List.rev !acc with
    | [] -> unit
    | [ t ] -> t
    | ts -> if is_and then mk (And ts) Sort.Bool else mk (Or ts) Sort.Bool
  end

let and_ terms = assemble_nary ~is_and:true terms
let or_ terms = assemble_nary ~is_and:false terms
let implies a b = or_ [ not_ a; b ]
let iff a b = if a == b then tru else and_ [ or_ [ not_ a; b ]; or_ [ a; not_ b ] ]
let ite c t e = and_ [ or_ [ not_ c; t ]; or_ [ c; e ] ]
let xor a b = not_ (iff a b)

let at_most k terms =
  List.iter (require_sort "at_most" Sort.Bool) terms;
  (* Constants can be resolved immediately. *)
  let k = ref k in
  let remaining =
    List.filter
      (fun t ->
        if t == tru then begin
          decr k;
          false
        end
        else t != fls)
      terms
  in
  if !k < 0 then fls
  else if List.length remaining <= !k then tru
  else if !k = 0 then and_ (List.map not_ remaining)
  else mk (At_most (!k, remaining)) Sort.Bool

let at_least k terms =
  (* at least k of n  <=>  at most (n-k) of the negations *)
  at_most (List.length terms - k) (List.map not_ terms)

let exactly k terms = and_ [ at_most k terms; at_least k terms ]

(* -- arithmetic -------------------------------------------------------------- *)

let int_const n = mk (Int_const n) Sort.Int
let rat_const q = mk (Rat_const q) Sort.Real

let arith_sort what a b =
  match (a.sort, b.sort) with
  | Sort.Int, Sort.Int -> Sort.Int
  | Sort.Real, Sort.Real -> Sort.Real
  | _ ->
    invalid_arg
      (Printf.sprintf "Term.%s: incompatible sorts %s and %s" what (Sort.to_string a.sort)
         (Sort.to_string b.sort))

let add a b =
  let s = arith_sort "add" a b in
  match (a.node, b.node) with
  | Int_const x, Int_const y -> int_const (x + y)
  | Rat_const x, Rat_const y -> rat_const (Rat.add x y)
  | Int_const 0, _ -> b
  | _, Int_const 0 -> a
  | _ when s = Sort.Real && a.node = Rat_const Rat.zero -> b
  | _ -> mk (Add (a, b)) s

let sub a b =
  let s = arith_sort "sub" a b in
  match (a.node, b.node) with
  | Int_const x, Int_const y -> int_const (x - y)
  | Rat_const x, Rat_const y -> rat_const (Rat.sub x y)
  | _, Int_const 0 -> a
  | _ -> if a == b then (match s with Sort.Int -> int_const 0 | _ -> rat_const Rat.zero) else mk (Sub (a, b)) s

let scale q t =
  match t.sort with
  | Sort.Int when not (Exactnum.Bigint.equal (Rat.den q) Exactnum.Bigint.one) ->
    invalid_arg "Term.scale: non-integer scaling of Int term"
  | Sort.Int | Sort.Real ->
    (match t.node with
     | Int_const n ->
       let v = Rat.mul q (Rat.of_int n) in
       (match Exactnum.Bigint.to_int_opt (Rat.num v) with
        | Some n when Exactnum.Bigint.equal (Rat.den v) Exactnum.Bigint.one -> int_const n
        | _ -> invalid_arg "Term.scale: non-integer scaling of Int constant")
     | Rat_const r -> rat_const (Rat.mul q r)
     | _ -> if Rat.equal q Rat.one then t else mk (Scale (q, t)) t.sort)
  | Sort.Bool | Sort.Bitvec _ -> invalid_arg "Term.scale: not an arithmetic term"

let cmp_fold op a b =
  match (a.node, b.node) with
  | Int_const x, Int_const y -> Some (op (Stdlib.compare x y) 0)
  | Rat_const x, Rat_const y -> Some (op (Rat.compare x y) 0)
  | _ -> None

let leq a b =
  ignore (arith_sort "leq" a b);
  match cmp_fold ( <= ) a b with
  | Some r -> bool_const r
  | None -> if a == b then tru else mk (Leq (a, b)) Sort.Bool

let lt a b =
  ignore (arith_sort "lt" a b);
  match cmp_fold ( < ) a b with
  | Some r -> bool_const r
  | None -> if a == b then fls else mk (Lt (a, b)) Sort.Bool

let geq a b = leq b a
let gt a b = lt b a

(* -- bit vectors -------------------------------------------------------------- *)

let bv_mask w = if w >= 62 then max_int else (1 lsl w) - 1

let bv_const ~width v =
  if width < 1 || width > 62 then invalid_arg "Term.bv_const: width out of range";
  mk (Bv_const (v land bv_mask width)) (Sort.Bitvec width)

let bv_var name ~width = var name (Sort.Bitvec width)

let bv_width what t =
  match t.sort with
  | Sort.Bitvec w -> w
  | Sort.Bool | Sort.Int | Sort.Real ->
    invalid_arg (Printf.sprintf "Term.%s: not a bit vector" what)

let bv_same_width what a b =
  let w = bv_width what a in
  if bv_width what b <> w then invalid_arg (Printf.sprintf "Term.%s: width mismatch" what);
  w

let bv_and a b =
  let w = bv_same_width "bv_and" a b in
  match (a.node, b.node) with
  | Bv_const x, Bv_const y -> bv_const ~width:w (x land y)
  | _ -> if a == b then a else mk (Bv_and (a, b)) (Sort.Bitvec w)

let bv_ule a b =
  ignore (bv_same_width "bv_ule" a b);
  match (a.node, b.node) with
  | Bv_const x, Bv_const y -> bool_const (x <= y)
  | _ -> if a == b then tru else mk (Bv_ule (a, b)) Sort.Bool

let bv_eq a b =
  ignore (bv_same_width "bv_eq" a b);
  match (a.node, b.node) with
  | Bv_const x, Bv_const y -> bool_const (x = y)
  | _ -> if a == b then tru else mk (Eq (a, b)) Sort.Bool

(* -- polymorphic equality ------------------------------------------------------ *)

let eq a b =
  if not (Sort.equal a.sort b.sort) then
    invalid_arg
      (Printf.sprintf "Term.eq: incompatible sorts %s and %s" (Sort.to_string a.sort)
         (Sort.to_string b.sort));
  match a.sort with
  | Sort.Bool -> iff a b
  | Sort.Int | Sort.Real -> and_ [ leq a b; leq b a ]
  | Sort.Bitvec _ -> bv_eq a b

let neq a b = not_ (eq a b)

(* -- printing -------------------------------------------------------------------- *)

let rec pp fmt t =
  let open Format in
  match t.node with
  | True -> pp_print_string fmt "true"
  | False -> pp_print_string fmt "false"
  | Var s -> pp_print_string fmt s
  | Not a -> fprintf fmt "(not %a)" pp a
  | And l -> fprintf fmt "(and%a)" pp_args l
  | Or l -> fprintf fmt "(or%a)" pp_args l
  | Implies (a, b) -> fprintf fmt "(=> %a %a)" pp a pp b
  | Iff (a, b) -> fprintf fmt "(iff %a %a)" pp a pp b
  | Ite (c, a, b) -> fprintf fmt "(ite %a %a %a)" pp c pp a pp b
  | At_most (k, l) -> fprintf fmt "(at-most %d%a)" k pp_args l
  | Int_const n -> pp_print_int fmt n
  | Rat_const q -> Rat.pp fmt q
  | Add (a, b) -> fprintf fmt "(+ %a %a)" pp a pp b
  | Sub (a, b) -> fprintf fmt "(- %a %a)" pp a pp b
  | Scale (q, a) -> fprintf fmt "(* %a %a)" Rat.pp q pp a
  | Leq (a, b) -> fprintf fmt "(<= %a %a)" pp a pp b
  | Lt (a, b) -> fprintf fmt "(< %a %a)" pp a pp b
  | Eq (a, b) -> fprintf fmt "(= %a %a)" pp a pp b
  | Bv_const v -> fprintf fmt "#x%x" v
  | Bv_and (a, b) -> fprintf fmt "(bvand %a %a)" pp a pp b
  | Bv_ule (a, b) -> fprintf fmt "(bvule %a %a)" pp a pp b

and pp_args fmt l = List.iter (fun t -> Format.fprintf fmt " %a" pp t) l

let to_string t = Format.asprintf "%a" pp t

let size t =
  let seen = ref Ids.empty in
  let rec go t =
    if not (Ids.mem t.id !seen) then begin
      seen := Ids.add t.id !seen;
      match t.node with
      | True | False | Var _ | Int_const _ | Rat_const _ | Bv_const _ -> ()
      | Not a | Scale (_, a) -> go a
      | And l | Or l | At_most (_, l) -> List.iter go l
      | Implies (a, b)
      | Iff (a, b)
      | Add (a, b)
      | Sub (a, b)
      | Leq (a, b)
      | Lt (a, b)
      | Eq (a, b)
      | Bv_and (a, b)
      | Bv_ule (a, b) -> go a; go b
      | Ite (c, a, b) -> go c; go a; go b
    end
  in
  go t;
  Ids.cardinal !seen
