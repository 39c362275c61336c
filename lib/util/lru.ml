(* Doubly-linked recency list + hashtable from key to node. The list head is
   the least recently used entry, the tail the most recent. The table is
   made by the first [add], at the standard library's smallest size, and
   grows with the entries; [cap] bounds nothing but what [capacity]
   reports. So an empty LRU is a few words, whatever its capacity. *)

type ('k, 'a) node = {
  key : 'k;
  mutable value : 'a;
  mutable prev : ('k, 'a) node option;
  mutable next : ('k, 'a) node option;
  mutable self : ('k, 'a) node option; (* [Some] of this node, built once *)
}

type ('k, 'a) t = {
  cap : int;
  mutable tbl : ('k, ('k, 'a) node) Hashtbl.t option;
  mutable head : ('k, 'a) node option; (* least recent *)
  mutable tail : ('k, 'a) node option; (* most recent *)
}

let create cap = { cap; tbl = None; head = None; tail = None }
let capacity t = t.cap
let length t = match t.tbl with Some h -> Hashtbl.length h | None -> 0

let unlink t n =
  (match n.prev with Some p -> p.next <- n.next | None -> t.head <- n.next);
  (match n.next with Some s -> s.prev <- n.prev | None -> t.tail <- n.prev);
  n.prev <- None;
  n.next <- None

let push_tail t n =
  n.prev <- t.tail;
  n.next <- None;
  (match t.tail with Some old -> old.next <- n.self | None -> t.head <- n.self);
  t.tail <- n.self

(* A hit allocates nothing: [Hashtbl.find] on a present key does not, and
   relinking reuses the node's own [self]. *)
let get t k =
  let n = match t.tbl with Some h -> Hashtbl.find h k | None -> raise Not_found in
  if t.tail != n.self then begin
    unlink t n;
    push_tail t n
  end;
  n.value

let find t k = match get t k with v -> Some v | exception Not_found -> None

let add t k v =
  let h =
    match t.tbl with
    | Some h -> h
    | None ->
        let h = Hashtbl.create 16 in
        t.tbl <- Some h;
        h
  in
  match Hashtbl.find_opt h k with
  | Some n ->
      n.value <- v;
      unlink t n;
      push_tail t n
  | None ->
      let n = { key = k; value = v; prev = None; next = None; self = None } in
      n.self <- Some n;
      Hashtbl.replace h k n;
      push_tail t n

let evict t ok =
  let rec scan = function
    | None -> None
    | Some n ->
        if ok n.key n.value then begin
          unlink t n;
          Hashtbl.remove (Option.get t.tbl) n.key;
          Some (n.key, n.value)
        end
        else scan n.next
  in
  scan t.head

let clear t =
  t.tbl <- None;
  t.head <- None;
  t.tail <- None

let iter t f =
  let rec go = function
    | None -> ()
    | Some n ->
        let next = n.next in
        f n.key n.value;
        go next
  in
  go t.head
