(* Edges live in a flat int arena, [stride] words per assertion, in
   trail order.  The theory path asserts (and re-asserts, after every
   backtrack) hundreds of thousands of constraints per solve; keeping
   them as unboxed ints instead of records means the hot path allocates
   nothing and the GC never scans the stack. *)
let stride = 5 (* ex, ey, ek, etag, pos *)

(* In-place [Vec] access that this module inlines (dev builds compile
   [Vec] with -opaque, so its own functions are never inlined here);
   bounds-checked only under MS_VEC_DEBUG, like [Vec.unsafe_get]. *)
let[@inline] vget (v : Vec.t) i =
  if Vec.debug && (i < 0 || i >= v.Vec.len) then invalid_arg "Vec.unsafe_get (MS_VEC_DEBUG)";
  Array.unsafe_get v.Vec.data i

let[@inline] vpush (v : Vec.t) x =
  if v.Vec.len = Array.length v.Vec.data then Vec.grow v;
  Array.unsafe_set v.Vec.data v.Vec.len x;
  v.Vec.len <- v.Vec.len + 1

type t = {
  n : int;
  d : int array;  (* feasible: d.(ex) <= d.(ey) + ek for every edge *)
  out : Vec.t array;  (* edge base offsets by source node [ey] *)
  edges : Vec.t;  (* assertion stack, trail order, [stride] words each *)
  pred_src : int array;  (* repair bookkeeping *)
  pred_tag : int array;
  queue : Vec.t;  (* scratch: repair worklist (FIFO via a head index) *)
  changes : Vec.t;  (* scratch: (node, old distance) undo pairs *)
  ladders : (int * int, (int * int) list ref) Hashtbl.t;
      (* (x, y) -> atoms x - y <= k over that variable pair as (k, var)
         sorted by k ascending: the "ladder" x-y<=k implies x-y<=k' for
         every k' > k, which theory propagation exploits *)
  mutable nbr_below : int array;  (* atom var -> adjacent rung var, or -1 *)
  mutable nbr_above : int array;
  mutable nbr_dirty : bool;
}

let create ~nvars =
  let n = max nvars 1 in
  {
    n;
    d = Array.make n 0;
    out = Array.init n (fun _ -> Vec.create ());
    edges = Vec.create ();
    pred_src = Array.make n (-1);
    pred_tag = Array.make n (-1);
    queue = Vec.create ();
    changes = Vec.create ();
    ladders = Hashtbl.create 256;
    nbr_below = [||];
    nbr_above = [||];
    nbr_dirty = false;
  }

let register_atom t ~x ~y ~k ~var =
  t.nbr_dirty <- true;
  let key = (x, y) in
  let rung = (k, var) in
  match Hashtbl.find_opt t.ladders key with
  | None -> Hashtbl.add t.ladders key (ref [ rung ])
  | Some l ->
    if not (List.mem rung !l) then
      l := List.sort (fun (ka, _) (kb, _) -> compare ka kb) (rung :: !l)

(* Ladder adjacency is static once the atoms are registered, so the
   per-rung neighbors are resolved into plain arrays indexed by SAT
   variable: the per-assertion lookup in the DPLL(T) loop is then two
   array reads instead of a hash probe plus a list walk. *)
let rebuild_neighbors t =
  let maxv =
    Hashtbl.fold
      (fun _ l acc -> List.fold_left (fun acc (_, v) -> max acc v) acc !l)
      t.ladders (-1)
  in
  let below = Array.make (maxv + 1) (-1) in
  let above = Array.make (maxv + 1) (-1) in
  Hashtbl.iter
    (fun _ l ->
      let rungs = Array.of_list !l in
      let m = Array.length rungs in
      for i = 0 to m - 1 do
        let k, v = rungs.(i) in
        (* strictly weaker / stronger bounds only: equal-k duplicates
           (distinct vars encoding one bound) are not lemma partners *)
        let j = ref (i - 1) in
        while !j >= 0 && fst rungs.(!j) >= k do
          decr j
        done;
        if !j >= 0 then below.(v) <- snd rungs.(!j);
        let j = ref (i + 1) in
        while !j < m && fst rungs.(!j) <= k do
          incr j
        done;
        if !j < m then above.(v) <- snd rungs.(!j)
      done)
    t.ladders;
  t.nbr_below <- below;
  t.nbr_above <- above;
  t.nbr_dirty <- false

let ladder_below t ~var =
  if t.nbr_dirty then rebuild_neighbors t;
  if var < Array.length t.nbr_below then t.nbr_below.(var) else -1

let ladder_above t ~var =
  if t.nbr_dirty then rebuild_neighbors t;
  if var < Array.length t.nbr_above then t.nbr_above.(var) else -1

exception Infeasible of int list

(* push the edge [x - y <= k] onto the assertion stack *)
let[@inline] commit t ~trail_pos ~x ~y ~k ~tag =
  let edges = t.edges in
  let base = edges.Vec.len in
  vpush edges x;
  vpush edges y;
  vpush edges k;
  vpush edges tag;
  vpush edges trail_pos;
  vpush t.out.(y) base

let assert_constr t ~trail_pos ~x ~y ~k ~tag =
  if x < 0 || x >= t.n || y < 0 || y >= t.n then invalid_arg "Idl_inc.assert_constr";
  let d = t.d in
  let edges = t.edges in
  if d.(x) <= d.(y) + k then begin
    (* already satisfied by the current distance function *)
    commit t ~trail_pos ~x ~y ~k ~tag;
    None
  end
  else begin
    (* repair: lower d.(x) to d.(y) + k and propagate decreases; a
       decrease reaching y again closes a negative cycle *)
    let changes = t.changes in
    changes.Vec.len <- 0;
    vpush changes x;
    vpush changes d.(x);
    d.(x) <- d.(y) + k;
    t.pred_src.(x) <- y;
    t.pred_tag.(x) <- tag;
    let queue = t.queue in
    queue.Vec.len <- 0;
    vpush queue x;
    let qhead = ref 0 in
    match
      while !qhead < queue.Vec.len do
        let u = vget queue !qhead in
        incr qhead;
        let du = d.(u) in
        let ou = t.out.(u) in
        for oi = 0 to ou.Vec.len - 1 do
          let base = vget ou oi in
          let ex = vget edges base in
          let ek = vget edges (base + 2) in
          if du + ek < d.(ex) then begin
            let etag = vget edges (base + 3) in
            if ex = y then begin
              (* negative cycle: new edge + path x ~> u + edge u->y *)
              let tags = ref [ tag; etag ] in
              let cur = ref u in
              let steps = ref 0 in
              while !cur <> x && !steps <= t.n do
                tags := t.pred_tag.(!cur) :: !tags;
                cur := t.pred_src.(!cur);
                incr steps
              done;
              if !steps > t.n then begin
                (* defensive: a stale predecessor chain; fall back to
                   the (sound, non-minimal) full asserted set *)
                tags := [ tag ];
                let m = edges.Vec.len / stride in
                for ei = 0 to m - 1 do
                  tags := Vec.get edges ((ei * stride) + 3) :: !tags
                done
              end;
              raise (Infeasible !tags)
            end;
            vpush changes ex;
            vpush changes d.(ex);
            d.(ex) <- du + ek;
            t.pred_src.(ex) <- u;
            t.pred_tag.(ex) <- etag;
            vpush queue ex
          end
        done
      done
    with
    | () ->
      commit t ~trail_pos ~x ~y ~k ~tag;
      None
    | exception Infeasible tags ->
      (* roll the distances back; the constraint is not committed.
         Newest-to-oldest so a node touched twice ends on its original
         (oldest) value. *)
      let i = ref (changes.Vec.len - 2) in
      while !i >= 0 do
        d.(vget changes !i) <- vget changes (!i + 1);
        i := !i - 2
      done;
      Some (List.sort_uniq compare tags)
  end

let backtrack t ~trail_size =
  let edges = t.edges in
  let continue = ref true in
  while !continue && edges.Vec.len > 0 do
    let base = edges.Vec.len - stride in
    if vget edges (base + 4) >= trail_size then begin
      let out = t.out.(vget edges (base + 1)) in
      let last = out.Vec.len - 1 in
      assert (last >= 0 && vget out last = base);
      out.Vec.len <- last;
      edges.Vec.len <- base
    end
    else continue := false
  done

let model t = Array.copy t.d
