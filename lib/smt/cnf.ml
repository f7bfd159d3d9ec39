module Rat = Exactnum.Rat

type int_atom = { ix : int; iy : int; ik : int }
type rat_atom = { rcoeffs : (int * Rat.t) list; rbound : Rat.t; rstrict : bool }

(* A "bit" during bit-blasting: either a SAT literal or a constant. *)
type bit = Blit of int | Bconst of bool

(* Memo tables that own their keys.  Term hash-consing is weak, so a
   memo keyed by bare ids would let a blasted term be reclaimed and
   rebuilt under a fresh id, missing the memo and re-blasting it; holding
   the term keeps every term this solver has blasted shared for as long
   as the solver lives.  (The theory-variable tables may stay keyed by
   id: [int_var_list] and [rat_var_list] hold their terms.) *)
module Tbl = Hashtbl.Make (Term)

type t = {
  sat : Sat.t;
  true_lit : int;
  lit_memo : int Tbl.t;
  int_vars : (int, int) Hashtbl.t;
  mutable int_var_list : (Term.t * int) list;
  mutable n_int_vars : int;
  rat_vars : (int, int) Hashtbl.t;
  mutable rat_var_list : (Term.t * int) list;
  mutable n_rat_vars : int;
  int_atom_tbl : (int * int * int, int) Hashtbl.t;
  mutable int_atom_list : (int * int_atom) list;
  rat_atom_tbl : (string, int) Hashtbl.t;
  mutable rat_atom_list : (int * rat_atom) list;
  bv_memo : bit array Tbl.t;
  mutable bv_var_list : (Term.t * int array) list;
  mutable bool_var_list : (Term.t * int) list;
}

let create ?(proof = false) () =
  let sat = Sat.create () in
  (* recording must start before the [true_lit] unit below: the trace's
     active set has to cover every clause the solver ever saw *)
  if proof then Sat.enable_proof sat;
  let tv = Sat.new_var sat in
  let true_lit = Sat.pos_lit tv in
  Sat.add_clause sat [ true_lit ];
  {
    sat;
    true_lit;
    lit_memo = Tbl.create 4096;
    int_vars = Hashtbl.create 256;
    int_var_list = [];
    n_int_vars = 0;
    rat_vars = Hashtbl.create 64;
    rat_var_list = [];
    n_rat_vars = 0;
    int_atom_tbl = Hashtbl.create 1024;
    int_atom_list = [];
    rat_atom_tbl = Hashtbl.create 64;
    rat_atom_list = [];
    bv_memo = Tbl.create 64;
    bv_var_list = [];
    bool_var_list = [];
  }

let sat c = c.sat
let num_int_vars c = c.n_int_vars
let num_rat_vars c = c.n_rat_vars
let int_atoms c = c.int_atom_list
let rat_atoms c = c.rat_atom_list
let int_var_terms c = c.int_var_list
let rat_var_terms c = c.rat_var_list
let bool_var_lits c = c.bool_var_list
let bv_var_bits c = c.bv_var_list

let false_lit c = Sat.lit_neg c.true_lit
let fresh_lit c = Sat.pos_lit (Sat.new_var c.sat)

let int_var_index c (t : Term.t) =
  match Hashtbl.find_opt c.int_vars (Term.id t) with
  | Some i -> i
  | None ->
    let i = c.n_int_vars in
    c.n_int_vars <- i + 1;
    Hashtbl.add c.int_vars (Term.id t) i;
    c.int_var_list <- (t, i) :: c.int_var_list;
    i

let rat_var_index c (t : Term.t) =
  match Hashtbl.find_opt c.rat_vars (Term.id t) with
  | Some i -> i
  | None ->
    let i = c.n_rat_vars in
    c.n_rat_vars <- i + 1;
    Hashtbl.add c.rat_vars (Term.id t) i;
    c.rat_var_list <- (t, i) :: c.rat_var_list;
    i

(* -- small gate constructors over bits ------------------------------------- *)

let bit_neg c b =
  ignore c;
  match b with Bconst v -> Bconst (not v) | Blit l -> Blit (Sat.lit_neg l)

let bit_and2 c a b =
  match (a, b) with
  | Bconst false, _ | _, Bconst false -> Bconst false
  | Bconst true, x | x, Bconst true -> x
  | Blit la, Blit lb ->
    if la = lb then a
    else if la = Sat.lit_neg lb then Bconst false
    else begin
      let v = fresh_lit c in
      Sat.add_clause c.sat [ Sat.lit_neg v; la ];
      Sat.add_clause c.sat [ Sat.lit_neg v; lb ];
      Sat.add_clause c.sat [ v; Sat.lit_neg la; Sat.lit_neg lb ];
      Blit v
    end

let bit_or2 c a b = bit_neg c (bit_and2 c (bit_neg c a) (bit_neg c b))

let bit_iff2 c a b =
  match (a, b) with
  | Bconst x, Bconst y -> Bconst (x = y)
  | Bconst true, x | x, Bconst true -> x
  | Bconst false, x | x, Bconst false -> bit_neg c x
  | Blit la, Blit lb ->
    if la = lb then Bconst true
    else if la = Sat.lit_neg lb then Bconst false
    else begin
      let v = fresh_lit c in
      Sat.add_clause c.sat [ Sat.lit_neg v; Sat.lit_neg la; lb ];
      Sat.add_clause c.sat [ Sat.lit_neg v; la; Sat.lit_neg lb ];
      Sat.add_clause c.sat [ v; la; lb ];
      Sat.add_clause c.sat [ v; Sat.lit_neg la; Sat.lit_neg lb ];
      Blit v
    end

let bit_to_lit c = function Bconst true -> c.true_lit | Bconst false -> false_lit c | Blit l -> l

(* -- bit-blasting ------------------------------------------------------------ *)

let rec bits_of c (t : Term.t) =
  match Tbl.find_opt c.bv_memo t with
  | Some bits -> bits
  | None ->
    let width = match Term.sort t with Sort.Bitvec w -> w | _ -> invalid_arg "Cnf.bits_of" in
    let bits =
      match t.node with
      | Term.Var _ ->
        let lits = Array.init width (fun _ -> fresh_lit c) in
        c.bv_var_list <- (t, lits) :: c.bv_var_list;
        Array.map (fun l -> Blit l) lits
      | Term.Bv_const v -> Array.init width (fun i -> Bconst ((v lsr i) land 1 = 1))
      | Term.Bv_and (a, b) ->
        let ba = bits_of c a and bb = bits_of c b in
        Array.init width (fun i -> bit_and2 c ba.(i) bb.(i))
      | _ -> invalid_arg "Cnf.bits_of: unsupported bit-vector term"
    in
    Tbl.add c.bv_memo t bits;
    bits

let bv_eq_lit c a b =
  let ba = bits_of c a and bb = bits_of c b in
  let conj = ref (Bconst true) in
  Array.iteri (fun i abit -> conj := bit_and2 c !conj (bit_iff2 c abit bb.(i))) ba;
  bit_to_lit c !conj

let bv_ule_lit c a b =
  let ba = bits_of c a and bb = bits_of c b in
  (* From the least significant bit up: le_i over bits 0..i. *)
  let le = ref (Bconst true) in
  Array.iteri
    (fun i abit ->
      let lt = bit_and2 c (bit_neg c abit) bb.(i) in
      let eq = bit_iff2 c abit bb.(i) in
      le := bit_or2 c lt (bit_and2 c eq !le))
    ba;
  bit_to_lit c !le

(* -- theory atoms ------------------------------------------------------------- *)

let register_int_atom c ix iy ik =
  match Hashtbl.find_opt c.int_atom_tbl (ix, iy, ik) with
  | Some v -> v
  | None ->
    let v = Sat.new_var c.sat in
    Hashtbl.add c.int_atom_tbl (ix, iy, ik) v;
    c.int_atom_list <- (v, { ix; iy; ik }) :: c.int_atom_list;
    v

(* Canonical orientation: the smaller variable index plays the role of x.
   An atom in the wrong orientation is encoded as the negation of its
   complement [y - x <= -k-1]. *)
let int_atom_lit c ix iy ik =
  if iy >= 0 && (ix < 0 || ix > iy) then
    Sat.neg_lit (register_int_atom c iy ix (-ik - 1))
  else Sat.pos_lit (register_int_atom c ix iy ik)

let rat_atom_key coeffs bound strict =
  let b = Buffer.create 64 in
  List.iter
    (fun (v, q) ->
      Buffer.add_string b (string_of_int v);
      Buffer.add_char b ':';
      Buffer.add_string b (Rat.to_string q);
      Buffer.add_char b ';')
    coeffs;
  Buffer.add_string b (Rat.to_string bound);
  if strict then Buffer.add_char b '<';
  Buffer.contents b

let rat_atom_lit c coeffs bound strict =
  let key = rat_atom_key coeffs bound strict in
  match Hashtbl.find_opt c.rat_atom_tbl key with
  | Some v -> Sat.pos_lit v
  | None ->
    let v = Sat.new_var c.sat in
    Hashtbl.add c.rat_atom_tbl key v;
    c.rat_atom_list <- (v, { rcoeffs = coeffs; rbound = bound; rstrict = strict }) :: c.rat_atom_list;
    Sat.pos_lit v

let arith_atom_lit c ~strict a b =
  match Linexp.classify_leq ~strict a b with
  | Linexp.Trivial true -> c.true_lit
  | Linexp.Trivial false -> false_lit c
  | Linexp.Idl { x; y; k } ->
    let ix = match x with Some t -> int_var_index c t | None -> -1 in
    let iy = match y with Some t -> int_var_index c t | None -> -1 in
    int_atom_lit c ix iy k
  | Linexp.Lra { coeffs; bound } ->
    let coeffs = List.map (fun (t, q) -> (rat_var_index c t, q)) coeffs in
    rat_atom_lit c coeffs bound strict

(* -- Tseitin ----------------------------------------------------------------- *)

(* Full Tseitin conversion: every And/Or definition is a biconditional,
   so its literal may be used under either polarity afterwards (as an
   assertion, a solve-time assumption or a retraction unit).  A
   definition's variable is allocated and memoized before its children
   are converted. *)
let rec lit_of c (t : Term.t) =
  match t.node with
  | Term.Not a -> Sat.lit_neg (lit_of c a)
  | Term.Implies (a, b) -> lit_of c (Term.or_ [ Term.not_ a; b ])
  | Term.Iff (a, b) -> lit_of c (Term.iff a b)
  | Term.Ite (cond, a, b) -> lit_of c (Term.ite cond a b)
  | _ -> (
    match Tbl.find_opt c.lit_memo t with
    | Some l -> l
    | None ->
      let l = match t.node with Term.And _ | Term.Or _ -> fresh_lit c | _ -> build_leaf c t in
      Tbl.replace c.lit_memo t l;
      define c t l;
      l)

and define c (t : Term.t) v =
  match t.node with
  | Term.And conj ->
    let lits = List.map (lit_of c) conj in
    List.iter (fun l -> Sat.add_clause c.sat [ Sat.lit_neg v; l ]) lits;
    Sat.add_clause c.sat (v :: List.map Sat.lit_neg lits)
  | Term.Or disj ->
    let lits = List.map (lit_of c) disj in
    List.iter (fun l -> Sat.add_clause c.sat [ v; Sat.lit_neg l ]) lits;
    Sat.add_clause c.sat (Sat.lit_neg v :: lits)
  | _ -> ()

and build_leaf c (t : Term.t) =
  match t.node with
  | Term.True -> c.true_lit
  | Term.False -> false_lit c
  | Term.Var _ ->
    if not (Sort.equal (Term.sort t) Sort.Bool) then
      invalid_arg "Cnf.lit_of: non-boolean variable in boolean position";
    let l = fresh_lit c in
    c.bool_var_list <- (t, l) :: c.bool_var_list;
    l
  | Term.At_most (k, ts) -> at_most_lit c k ts
  | Term.Leq (a, b) -> arith_atom_lit c ~strict:false a b
  | Term.Lt (a, b) -> arith_atom_lit c ~strict:true a b
  | Term.Eq (a, b) ->
    (match Term.sort a with
     | Sort.Bitvec _ -> bv_eq_lit c a b
     | _ -> invalid_arg "Cnf.lit_of: unexpected equality node")
  | Term.Bv_ule (a, b) -> bv_ule_lit c a b
  | Term.Not _ | Term.And _ | Term.Or _ | Term.Implies _ | Term.Iff _ | Term.Ite _ ->
    assert false
  | Term.Int_const _ | Term.Rat_const _ | Term.Add _ | Term.Sub _ | Term.Scale _
  | Term.Bv_const _ | Term.Bv_and _ ->
    invalid_arg "Cnf.lit_of: arithmetic term in boolean position"

(* Sequential counter: s.(j) after processing i inputs means "at least
   j+1 of the first i inputs are true"; we track at most k+1 registers
   and return the negation of the overflow register.  The gates are full
   equivalences, so the result is sound under both polarities. *)
and at_most_lit c k ts =
  let inputs = List.map (fun t -> Blit (lit_of c t)) ts in
  let regs = Array.make (k + 1) (Bconst false) in
  List.iter
    (fun x ->
      for j = k downto 1 do
        regs.(j) <- bit_or2 c regs.(j) (bit_and2 c x regs.(j - 1))
      done;
      regs.(0) <- bit_or2 c regs.(0) x)
    inputs;
  bit_to_lit c (bit_neg c regs.(k))

let rec assert_term c (t : Term.t) =
  match t.node with
  | Term.True -> ()
  | Term.False -> Sat.add_clause c.sat []
  | Term.And conj -> List.iter (assert_term c) conj
  | Term.Or disj -> Sat.add_clause c.sat (List.map (lit_of c) disj)
  | _ -> Sat.add_clause c.sat [ lit_of c t ]

let assert_implied c ~guard t =
  let g = Sat.lit_neg (lit_of c guard) in
  let rec go (t : Term.t) =
    match t.node with
    | Term.True -> ()
    | Term.And conj -> List.iter go conj
    | Term.Or disj -> Sat.add_clause c.sat (g :: List.map (lit_of c) disj)
    | _ -> Sat.add_clause c.sat [ g; lit_of c t ]
  in
  go t
