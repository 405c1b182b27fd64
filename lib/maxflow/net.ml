type arc = int

type t = {
  mutable n : int;
  mutable m : int; (* arc slots in use (forward + residual) *)
  mutable arc_dst : int array;
  mutable arc_res : float array;
  mutable arc_cap : float array; (* original capacity; 0 for residual twins *)
  mutable csr : (int array * arc array) option; (* adjacency, built on demand *)
}

let create ~n =
  {
    n;
    m = 0;
    arc_dst = Array.make 16 0;
    arc_res = Array.make 16 0.0;
    arc_cap = Array.make 16 0.0;
    csr = None;
  }

let add_node t =
  let id = t.n in
  t.n <- t.n + 1;
  t.csr <- None;
  id

let ensure_arc_room t =
  if t.m + 2 > Array.length t.arc_dst then begin
    let cap = 2 * (t.m + 2) in
    let grow_i a =
      let g = Array.make cap 0 in
      Array.blit a 0 g 0 t.m;
      g
    and grow_f a =
      let g = Array.make cap 0.0 in
      Array.blit a 0 g 0 t.m;
      g
    in
    t.arc_dst <- grow_i t.arc_dst;
    t.arc_res <- grow_f t.arc_res;
    t.arc_cap <- grow_f t.arc_cap
  end

let add_arc t ~src ~dst ~cap =
  if Float.is_nan cap || cap < 0.0 then invalid_arg "Net.add_arc: bad capacity";
  if src < 0 || src >= t.n || dst < 0 || dst >= t.n then
    invalid_arg "Net.add_arc: node out of range";
  ensure_arc_room t;
  let a = t.m in
  t.arc_dst.(a) <- dst;
  t.arc_res.(a) <- cap;
  t.arc_cap.(a) <- cap;
  t.arc_dst.(a + 1) <- src;
  t.arc_res.(a + 1) <- 0.0;
  t.arc_cap.(a + 1) <- 0.0;
  t.m <- t.m + 2;
  t.csr <- None;
  a

let n_nodes t = t.n
let n_arcs t = t.m / 2
let capacity t a = t.arc_cap.(a)

let flow t a =
  (* Flow on a forward arc equals the residual capacity accumulated on
     its twin. *)
  t.arc_res.(a lxor 1) -. t.arc_cap.(a lxor 1)

(* The adjacency arrays are never mutated once built, so a copy may
   share them. *)
let copy t =
  { t with arc_dst = Array.copy t.arc_dst; arc_res = Array.copy t.arc_res; arc_cap = Array.copy t.arc_cap }

let reset t =
  Array.blit t.arc_cap 0 t.arc_res 0 t.m

let dst t a = t.arc_dst.(a)
let twin a = a lxor 1
let residual t a = t.arc_res.(a)

let[@inline] augment t a f =
  t.arc_res.(a) <- t.arc_res.(a) -. f;
  t.arc_res.(a lxor 1) <- t.arc_res.(a lxor 1) +. f

(* Counting sort of the arc slots by tail node (the tail of [a] is the
   head of its twin).  Slots are scanned in increasing id, so each
   node's arcs come out in insertion order. *)
let build_csr t =
  let start = Array.make (t.n + 1) 0 in
  for a = 0 to t.m - 1 do
    let v = t.arc_dst.(a lxor 1) in
    start.(v + 1) <- start.(v + 1) + 1
  done;
  for v = 0 to t.n - 1 do
    start.(v + 1) <- start.(v + 1) + start.(v)
  done;
  let fill = Array.sub start 0 (max t.n 1) in
  let arcs = Array.make t.m 0 in
  for a = 0 to t.m - 1 do
    let v = t.arc_dst.(a lxor 1) in
    arcs.(fill.(v)) <- a;
    fill.(v) <- fill.(v) + 1
  done;
  (start, arcs)

let adjacency t =
  match t.csr with
  | Some c -> c
  | None ->
      let c = build_csr t in
      t.csr <- Some c;
      c
