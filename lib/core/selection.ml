(** Route selection (§3 step 5): symbolic encoding of the decision
    process.  [constrain_best] produces the standard Minesweeper
    constraints: the best record is valid iff some candidate is, is at
    least as preferred as every valid candidate, and equals one of
    them. *)

module T = Smt.Term

(* Lexicographic "at least as preferred": each step is (better, equal). *)
let lex steps =
  let rec go = function
    | [] -> T.tru
    | (better, equal) :: rest -> T.or_ [ better; T.and_ [ equal; go rest ] ]
  in
  go steps

(* Longest prefix first: a longer matching prefix always wins.  This
   reflects the per-packet slice of longest-prefix-match forwarding. *)
let plen_step (a : Sym_record.t) (b : Sym_record.t) = (T.gt a.plen b.plen, T.eq a.plen b.plen)

(* One {!Config.Semantics} decision step as a (better, equal) pair; an
   iBGP flag orders false (eBGP) below true. *)
let step (a : Sym_record.t) (b : Sym_record.t) (s : Config.Semantics.step) =
  let less x y =
    if Smt.Sort.equal (T.sort x) Smt.Sort.Bool then T.and_ [ T.not_ x; y ] else T.lt x y
  in
  match s with
  | Lower f ->
    let x = Sym_record.attribute f a and y = Sym_record.attribute f b in
    (less x y, T.eq x y)
  | Higher f ->
    let x = Sym_record.attribute f a and y = Sym_record.attribute f b in
    (less y x, T.eq x y)

(** [a] at least as preferred as [b] under a decision process: longest
    prefix, then each step in turn. *)
let geq steps (a : Sym_record.t) (b : Sym_record.t) =
  lex (plen_step a b :: List.map (step a b) steps)

(** Constraints defining [best] as the selection among [candidates].
    [geq a b] must hold when record [a] is at least as preferred as
    [b]. *)
let constrain_best ~geq ~(best : Sym_record.t) ~(candidates : Sym_record.t list) =
  let any_valid = T.or_ (List.map (fun (c : Sym_record.t) -> c.valid) candidates) in
  let dominates =
    List.map
      (fun (c : Sym_record.t) -> T.implies c.valid (geq best c))
      candidates
  in
  let equals_one =
    T.or_
      (List.map
         (fun (c : Sym_record.t) -> T.and_ [ c.valid; Sym_record.equal_fields best c ])
         candidates)
  in
  [ T.iff best.valid any_valid; T.implies best.valid (T.and_ dominates); T.implies best.valid equals_one ]
