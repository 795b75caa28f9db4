(* Exact LRU in O(1): a hashtable from block number to node, the nodes
   threaded on a circular doubly linked recency list through a per-cache
   sentinel.  The most recently touched node sits right after the
   sentinel, the victim right before it — the same block a scan for the
   oldest access would pick, so hit/miss counts do not depend on which
   of the two is used. *)

type node = {
  blk : int;
  buf : bytes;
  mutable prev : node;
  mutable next : node;
}

type t = {
  disk : Disk.t;
  capacity : int;
  table : (int, node) Hashtbl.t;
  lru : node;  (* sentinel: [lru.next] most recent, [lru.prev] victim *)
  mutable hits : int;
  mutable misses : int;
}

let create ?(capacity = 256) disk =
  if capacity < 0 then invalid_arg "Block_cache.create";
  let rec lru = { blk = -1; buf = Bytes.empty; prev = lru; next = lru } in
  { disk; capacity; table = Hashtbl.create (max 16 capacity); lru; hits = 0; misses = 0 }

let disk t = t.disk

let unlink n =
  n.prev.next <- n.next;
  n.next.prev <- n.prev

let push_front t n =
  n.prev <- t.lru;
  n.next <- t.lru.next;
  t.lru.next.prev <- n;
  t.lru.next <- n

let touch t n =
  unlink n;
  push_front t n

let evict_if_full t =
  if Hashtbl.length t.table >= t.capacity then begin
    let victim = t.lru.prev in
    unlink victim;
    Hashtbl.remove t.table victim.blk
  end

let insert t blk buf =
  if t.capacity > 0 then begin
    evict_if_full t;
    let rec n = { blk; buf; prev = n; next = n } in
    Hashtbl.replace t.table blk n;
    push_front t n
  end

let read t i =
  match Hashtbl.find_opt t.table i with
  | Some n ->
    t.hits <- t.hits + 1;
    touch t n;
    Ok n.buf
  | None ->
    t.misses <- t.misses + 1;
    (match Disk.read t.disk i with
     | Error _ as e -> e
     | Ok buf ->
       insert t i buf;
       Ok buf)

let read_copy t i =
  match read t i with Error _ as e -> e | Ok buf -> Ok (Bytes.copy buf)

let write t i buf =
  match Disk.write t.disk i buf with
  | Error _ as e -> e
  | Ok () ->
    (match Hashtbl.find_opt t.table i with
     | Some n ->
       Bytes.blit buf 0 n.buf 0 (Bytes.length buf);
       touch t n
     | None -> insert t i (Bytes.copy buf));
    Ok ()

let invalidate t =
  Hashtbl.reset t.table;
  t.lru.prev <- t.lru;
  t.lru.next <- t.lru

let hits t = t.hits
let misses t = t.misses

let reset_stats t =
  t.hits <- 0;
  t.misses <- 0
