module Rat = Exactnum.Rat
module Bigint = Exactnum.Bigint

type t = { coeffs : (Term.t * Rat.t) list; const : Rat.t }

exception Nonlinear of Term.t

module Imap = Map.Make (Int)

let of_term t =
  (* Accumulate coefficients in a map keyed by term id. *)
  let vars : Term.t Imap.t ref = ref Imap.empty in
  let coeffs = ref Imap.empty in
  let const = ref Rat.zero in
  let add_coeff v q =
    vars := Imap.add (Term.id v) v !vars;
    coeffs :=
      Imap.update (Term.id v)
        (function None -> Some q | Some q0 -> Some (Rat.add q0 q))
        !coeffs
  in
  let rec go scale (t : Term.t) =
    match t.node with
    | Term.Int_const n -> const := Rat.add !const (Rat.mul scale (Rat.of_int n))
    | Term.Rat_const q -> const := Rat.add !const (Rat.mul scale q)
    | Term.Var _ -> add_coeff t scale
    | Term.Add (a, b) ->
      go scale a;
      go scale b
    | Term.Sub (a, b) ->
      go scale a;
      go (Rat.neg scale) b
    | Term.Scale (q, a) -> go (Rat.mul scale q) a
    | Term.True | Term.False | Term.Not _ | Term.And _ | Term.Or _ | Term.Implies _
    | Term.Iff _ | Term.Ite _ | Term.At_most _ | Term.Leq _ | Term.Lt _ | Term.Eq _
    | Term.Bv_const _ | Term.Bv_and _ | Term.Bv_ule _ -> raise (Nonlinear t)
  in
  go Rat.one t;
  let coeffs =
    Imap.fold
      (fun id q acc -> if Rat.is_zero q then acc else (Imap.find id !vars, q) :: acc)
      !coeffs []
  in
  let coeffs = List.sort (fun (a, _) (b, _) -> Stdlib.compare (Term.id a) (Term.id b)) coeffs in
  { coeffs; const = !const }

let sub a b =
  let negated = { coeffs = List.map (fun (v, q) -> (v, Rat.neg q)) b.coeffs; const = Rat.neg b.const } in
  let m = Hashtbl.create 16 in
  List.iter (fun (v, q) -> Hashtbl.replace m (Term.id v) (v, q)) a.coeffs;
  List.iter
    (fun (v, q) ->
      match Hashtbl.find_opt m (Term.id v) with
      | None -> Hashtbl.replace m (Term.id v) (v, q)
      | Some (_, q0) -> Hashtbl.replace m (Term.id v) (v, Rat.add q0 q))
    negated.coeffs;
  let coeffs =
    Hashtbl.fold (fun _ (v, q) acc -> if Rat.is_zero q then acc else (v, q) :: acc) m []
    |> List.sort (fun (a, _) (b, _) -> Stdlib.compare (Term.id a) (Term.id b))
  in
  { coeffs; const = Rat.add a.const negated.const }

type int_diff = { x : Term.t option; y : Term.t option; k : int }

type classified =
  | Trivial of bool
  | Idl of int_diff
  | Lra of { coeffs : (Term.t * Rat.t) list; bound : Rat.t }

exception Not_difference_logic of Term.t * Term.t

(* -- integer atoms in native ints --------------------------------------------- *)

(* Term.scale admits only integral factors on Int terms, so an Int atom
   has integer coefficients throughout and classifies without rational
   arithmetic.  Every step is overflow-checked and fails like an
   out-of-range bound. *)
let overflow () = failwith "Linexp: difference bound exceeds native int range"

let add_exn a b =
  let s = a + b in
  if (a >= 0) = (b >= 0) && (s >= 0) <> (a >= 0) then overflow () else s

let mul_exn a b =
  let p = a * b in
  if a <> 0 && (p / a <> b || (a = -1 && b = min_int)) then overflow () else p

let int_of_rat q =
  assert (Bigint.equal (Rat.den q) Bigint.one);
  match Bigint.to_int_opt (Rat.num q) with Some n -> n | None -> overflow ()

let rec gcd a b = if b = 0 then abs a else gcd b (a mod b)

(* [a - b] as integer coefficients (non-zero, sorted by term id) and a
   constant.  Atoms have a handful of variables, so an association
   list beats a table. *)
let int_difference a b =
  let coeffs = ref [] and const = ref 0 in
  let rec go scale (t : Term.t) =
    match t.node with
    | Term.Int_const n -> const := add_exn !const (mul_exn scale n)
    | Term.Var _ ->
      (match List.find_opt (fun (v, _) -> v == t) !coeffs with
       | Some (_, c) -> c := add_exn !c scale
       | None -> coeffs := (t, ref scale) :: !coeffs)
    | Term.Add (x, y) ->
      go scale x;
      go scale y
    | Term.Sub (x, y) ->
      go scale x;
      go (mul_exn scale (-1)) y
    | Term.Scale (q, x) -> go (mul_exn scale (int_of_rat q)) x
    | Term.Rat_const _ (* Real-sorted: never inside an Int term *)
    | Term.True | Term.False | Term.Not _ | Term.And _ | Term.Or _ | Term.Implies _
    | Term.Iff _ | Term.Ite _ | Term.At_most _ | Term.Leq _ | Term.Lt _ | Term.Eq _
    | Term.Bv_const _ | Term.Bv_and _ | Term.Bv_ule _ -> raise (Nonlinear t)
  in
  go 1 a;
  go (-1) b;
  let coeffs =
    List.filter_map (fun (v, c) -> if !c = 0 then None else Some (v, !c)) !coeffs
    |> List.sort (fun (u, _) (v, _) -> Int.compare (Term.id u) (Term.id v))
  in
  (coeffs, !const)

let classify_int ~strict a b =
  (* a <= b  <=>  sum c_i x_i + const <= 0 *)
  match int_difference a b with
  | [], const -> Trivial (if strict then const < 0 else const <= 0)
  | coeffs, const ->
    (* Divide by the coefficients' gcd and tighten.  The left-hand side
       is an integer, so:
         sum <= n/g  tightens to  sum <= floor(n/g)
         sum <  n/g  tightens to  sum <= ceil(n/g)-1, which is
                     floor(n/g) for fractional n/g and n/g-1 for
                     integral n/g. *)
    let g = List.fold_left (fun g (_, c) -> gcd g c) 0 coeffs in
    if g < 0 then overflow () (* abs min_int *);
    let n = mul_exn const (-1) in
    let q = n / g and r = n mod g in
    let floored = if r < 0 then q - 1 else q in
    let k = if strict && r = 0 then add_exn floored (-1) else floored in
    (match List.map (fun (v, c) -> (v, c / g)) coeffs with
     | [ (x, 1) ] -> Idl { x = Some x; y = None; k }
     | [ (y, -1) ] -> Idl { x = None; y = Some y; k }
     | [ (x, 1); (y, -1) ] | [ (y, -1); (x, 1) ] -> Idl { x = Some x; y = Some y; k }
     | _ -> raise (Not_difference_logic (a, b)))

let classify_leq ~strict a b =
  if Sort.equal (Term.sort a) Sort.Int then classify_int ~strict a b
  else
    let d = sub (of_term a) (of_term b) in
    match d.coeffs with
    | [] ->
      let cmp = Rat.compare d.const Rat.zero in
      Trivial (if strict then cmp < 0 else cmp <= 0)
    | (_, lead) :: _ as coeffs ->
      (* Rational: canonicalize by dividing through by |c_1|. *)
      let lead = Rat.abs lead in
      let coeffs = List.map (fun (v, q) -> (v, Rat.div q lead)) coeffs in
      let bound = Rat.div (Rat.neg d.const) lead in
      Lra { coeffs; bound }
