type t = { mutable data : int array; mutable len : int }

(* Debug mode: the [unsafe_*] accessors — and the copies of them that
   the SAT core's loops inline — regain bounds checks when the
   environment sets MS_VEC_DEBUG (any value but "0"/""), so a cref or
   watcher-index bug in the hot loops fails loudly instead of reading
   garbage.  The flag is read once at module initialization: the branch
   on an immutable bool predicts perfectly and keeps the release path
   identical to a bare [Array.unsafe_get]. *)
let debug =
  match Sys.getenv_opt "MS_VEC_DEBUG" with
  | None | Some "" | Some "0" -> false
  | Some _ -> true

let create ?(capacity = 16) () = { data = Array.make (max capacity 1) 0; len = 0 }

let size v = v.len
let is_empty v = v.len = 0

let get v i =
  if i < 0 || i >= v.len then invalid_arg "Vec.get";
  Array.unsafe_get v.data i

let set v i x =
  if i < 0 || i >= v.len then invalid_arg "Vec.set";
  Array.unsafe_set v.data i x

let unsafe_get v i =
  if debug && (i < 0 || i >= v.len) then invalid_arg "Vec.unsafe_get (MS_VEC_DEBUG)";
  Array.unsafe_get v.data i

let unsafe_set v i x =
  if debug && (i < 0 || i >= v.len) then invalid_arg "Vec.unsafe_set (MS_VEC_DEBUG)";
  Array.unsafe_set v.data i x

(* [Array.blit] into an array on the major heap runs the write barrier
   ([caml_modify]) once per element: the runtime cannot tell the
   elements are ints.  This loop stores them directly.  Overlapping
   ranges of one array copy as [Array.blit] does. *)
let copy_ints (src : int array) spos (dst : int array) dpos len =
  if len < 0 || spos < 0 || spos > Array.length src - len || dpos < 0
     || dpos > Array.length dst - len
  then invalid_arg "Vec.copy_ints";
  if src == dst && spos < dpos then
    for i = len - 1 downto 0 do
      Array.unsafe_set dst (dpos + i) (Array.unsafe_get src (spos + i))
    done
  else
    for i = 0 to len - 1 do
      Array.unsafe_set dst (dpos + i) (Array.unsafe_get src (spos + i))
    done

let ensure_capacity v n =
  let cap = Array.length v.data in
  if n > cap then begin
    let cap = ref cap in
    while !cap < n do
      cap := 2 * !cap
    done;
    let data = Array.make !cap 0 in
    copy_ints v.data 0 data 0 v.len;
    v.data <- data
  end

let grow v = ensure_capacity v (Array.length v.data + 1)

let push v x =
  if v.len = Array.length v.data then grow v;
  Array.unsafe_set v.data v.len x;
  v.len <- v.len + 1

let pop v =
  if v.len = 0 then invalid_arg "Vec.pop";
  v.len <- v.len - 1;
  Array.unsafe_get v.data v.len

let clear v = v.len <- 0

let shrink v n =
  if n < 0 || n > v.len then invalid_arg "Vec.shrink";
  v.len <- n

let blit src spos dst dpos len =
  if len < 0 || spos < 0 || spos + len > src.len || dpos < 0 || dpos > dst.len then
    invalid_arg "Vec.blit";
  ensure_capacity dst (dpos + len);
  copy_ints src.data spos dst.data dpos len;
  if dpos + len > dst.len then dst.len <- dpos + len

let iter f v =
  for i = 0 to v.len - 1 do
    f (Array.unsafe_get v.data i)
  done

let to_list v = Array.to_list (Array.sub v.data 0 v.len)

let sort_in_place cmp v =
  let sub = Array.sub v.data 0 v.len in
  Array.sort cmp sub;
  copy_ints sub 0 v.data 0 v.len

let swap_remove v i =
  if i < 0 || i >= v.len then invalid_arg "Vec.swap_remove";
  v.len <- v.len - 1;
  Array.unsafe_set v.data i (Array.unsafe_get v.data v.len)
