(* Disk simulation and the buffer cache: the I/O accounting that the
   paper's performance numbers are stated in. *)

open Util

let test_disk_read_write () =
  let d = Disk.create ~nblocks:8 ~block_size:64 () in
  let buf = Bytes.make 64 'z' in
  ok (Disk.write d 3 buf);
  Alcotest.(check bytes) "roundtrip" buf (ok (Disk.read d 3));
  Alcotest.(check int) "reads" 1 (Disk.reads d);
  Alcotest.(check int) "writes" 1 (Disk.writes d)

let test_disk_bounds_and_size_checks () =
  let d = Disk.create ~nblocks:4 ~block_size:64 () in
  expect_err Errno.EINVAL (Result.map (fun _ -> ()) (Disk.read d 4));
  expect_err Errno.EINVAL (Result.map (fun _ -> ()) (Disk.read d (-1)));
  expect_err Errno.EINVAL (Disk.write d 0 (Bytes.make 32 'x'))

let test_disk_returns_private_copies () =
  let d = Disk.create ~nblocks:2 ~block_size:16 () in
  let b = ok (Disk.read d 0) in
  Bytes.fill b 0 16 'X';
  Alcotest.(check bytes) "media unaffected" (Bytes.make 16 '\000') (ok (Disk.read d 0))

let test_write_failure_injection () =
  let d = Disk.create ~nblocks:4 ~block_size:16 () in
  Disk.fail_writes_after d 2;
  ok (Disk.write d 0 (Bytes.make 16 'a'));
  ok (Disk.write d 1 (Bytes.make 16 'b'));
  expect_err Errno.EIO (Disk.write d 2 (Bytes.make 16 'c'));
  Disk.clear_failures d;
  ok (Disk.write d 2 (Bytes.make 16 'c'))

let test_snapshot_restore () =
  let d = Disk.create ~nblocks:2 ~block_size:16 () in
  ok (Disk.write d 0 (Bytes.make 16 'a'));
  let snap = Disk.snapshot d in
  ok (Disk.write d 0 (Bytes.make 16 'b'));
  Disk.restore d snap;
  Alcotest.(check bytes) "restored" (Bytes.make 16 'a') (ok (Disk.read d 0))

let test_cache_hit_avoids_device () =
  let d = Disk.create ~nblocks:8 ~block_size:64 () in
  let c = Block_cache.create ~capacity:4 d in
  let _ = ok (Block_cache.read c 0) in
  let reads_after_miss = Disk.reads d in
  let _ = ok (Block_cache.read c 0) in
  Alcotest.(check int) "no extra device read" reads_after_miss (Disk.reads d);
  Alcotest.(check int) "hits" 1 (Block_cache.hits c);
  Alcotest.(check int) "misses" 1 (Block_cache.misses c)

let test_cache_write_through () =
  let d = Disk.create ~nblocks:8 ~block_size:64 () in
  let c = Block_cache.create ~capacity:4 d in
  ok (Block_cache.write c 1 (Bytes.make 64 'q'));
  Alcotest.(check int) "device write happened" 1 (Disk.writes d);
  (* The cached copy serves reads without touching the device. *)
  let r = Disk.reads d in
  Alcotest.(check bytes) "cached" (Bytes.make 64 'q') (ok (Block_cache.read c 1));
  Alcotest.(check int) "served from cache" r (Disk.reads d)

let test_cache_lru_eviction () =
  let d = Disk.create ~nblocks:8 ~block_size:64 () in
  let c = Block_cache.create ~capacity:2 d in
  let _ = ok (Block_cache.read c 0) in
  let _ = ok (Block_cache.read c 1) in
  let _ = ok (Block_cache.read c 0) in  (* touch 0: 1 becomes LRU *)
  let _ = ok (Block_cache.read c 2) in  (* evicts 1 *)
  Block_cache.reset_stats c;
  let _ = ok (Block_cache.read c 0) in
  Alcotest.(check int) "0 still cached" 1 (Block_cache.hits c);
  let _ = ok (Block_cache.read c 1) in
  Alcotest.(check int) "1 was evicted" 1 (Block_cache.misses c)

let test_cache_invalidate () =
  let d = Disk.create ~nblocks:8 ~block_size:64 () in
  let c = Block_cache.create ~capacity:4 d in
  let _ = ok (Block_cache.read c 0) in
  Block_cache.invalidate c;
  Block_cache.reset_stats c;
  let _ = ok (Block_cache.read c 0) in
  Alcotest.(check int) "cold after invalidate" 1 (Block_cache.misses c)

let test_zero_capacity_disables_caching () =
  let d = Disk.create ~nblocks:8 ~block_size:64 () in
  let c = Block_cache.create ~capacity:0 d in
  let _ = ok (Block_cache.read c 0) in
  let _ = ok (Block_cache.read c 0) in
  Alcotest.(check int) "every access reaches the device" 2 (Disk.reads d)

let test_disk_latency_charging () =
  (* The on_io hook turns I/O counts into simulated time. *)
  let clock = Clock.create () in
  let d =
    Disk.create ~on_io:(fun () -> Clock.advance clock 10) ~nblocks:8 ~block_size:64 ()
  in
  let c = Block_cache.create ~capacity:4 d in
  let _ = ok (Block_cache.read c 0) in
  Alcotest.(check int) "miss costs 10 ticks" 10 (Clock.now clock);
  let _ = ok (Block_cache.read c 0) in
  Alcotest.(check int) "hit costs nothing" 10 (Clock.now clock);
  ok (Block_cache.write c 1 (Bytes.make 64 'x'));
  Alcotest.(check int) "write-through charged" 20 (Clock.now clock)

(* The reference the O(1) LRU must agree with: recency stamps, and
   eviction by a scan for the minimum stamp. *)
module Scan_lru = struct
  type t = {
    disk : Disk.t;
    capacity : int;
    table : (int, bytes * int ref) Hashtbl.t;
    mutable tick : int;
    mutable hits : int;
    mutable misses : int;
  }

  let create capacity disk =
    { disk; capacity; table = Hashtbl.create 16; tick = 0; hits = 0; misses = 0 }

  let touch t stamp =
    t.tick <- t.tick + 1;
    stamp := t.tick

  let insert t blk buf =
    if t.capacity > 0 then begin
      if Hashtbl.length t.table >= t.capacity then begin
        let oldest =
          Hashtbl.fold
            (fun blk (_, s) acc ->
              match acc with Some (_, best) when best <= !s -> acc | _ -> Some (blk, !s))
            t.table None
        in
        Option.iter (fun (blk, _) -> Hashtbl.remove t.table blk) oldest
      end;
      let stamp = ref 0 in
      touch t stamp;
      Hashtbl.replace t.table blk (buf, stamp)
    end

  let read t blk =
    match Hashtbl.find_opt t.table blk with
    | Some (buf, stamp) ->
      t.hits <- t.hits + 1;
      touch t stamp;
      Ok buf
    | None ->
      t.misses <- t.misses + 1;
      (match Disk.read t.disk blk with
       | Error _ as e -> e
       | Ok buf ->
         insert t blk buf;
         Ok buf)

  let write t blk buf =
    match Disk.write t.disk blk buf with
    | Error _ as e -> e
    | Ok () ->
      (match Hashtbl.find_opt t.table blk with
       | Some (cached, stamp) ->
         Bytes.blit buf 0 cached 0 (Bytes.length buf);
         touch t stamp
       | None -> insert t blk (Bytes.copy buf));
      Ok ()

  let invalidate t = Hashtbl.reset t.table
end

type cache_op = Read of int | Write of int * char | Invalidate

let print_cache_op = function
  | Read b -> Printf.sprintf "Read %d" b
  | Write (b, c) -> Printf.sprintf "Write(%d,%C)" b c
  | Invalidate -> "Invalidate"

(* Block 12 is past the end of the 12-block devices: the error path. *)
let cache_schedule_arb =
  let op =
    QCheck.Gen.(
      frequency
        [
          (6, map (fun b -> Read b) (int_bound 12));
          (3, map2 (fun b c -> Write (b, c)) (int_bound 11) printable);
          (1, return Invalidate);
        ])
  in
  QCheck.make
    ~print:(fun (cap, ops) ->
      Printf.sprintf "capacity %d: %s" cap (String.concat "; " (List.map print_cache_op ops)))
    QCheck.Gen.(pair (int_bound 8) (list_size (int_bound 60) op))

let lru_matches_scan (capacity, ops) =
  let bs = 16 in
  let d = Disk.create ~nblocks:12 ~block_size:bs () in
  let rd = Disk.create ~nblocks:12 ~block_size:bs () in
  let c = Block_cache.create ~capacity d in
  let r = Scan_lru.create capacity rd in
  let same_result a b =
    match a, b with
    | Ok x, Ok y -> Bytes.equal x y
    | Error e, Error e' -> Errno.equal e e'
    | _ -> false
  in
  let agree op =
    let same =
      match op with
      | Read b -> same_result (Block_cache.read c b) (Scan_lru.read r b)
      | Write (b, ch) ->
        let buf = Bytes.make bs ch in
        Result.is_ok (Block_cache.write c b buf) && Result.is_ok (Scan_lru.write r b buf)
      | Invalidate ->
        Block_cache.invalidate c;
        Scan_lru.invalidate r;
        true
    in
    same
    && Block_cache.hits c = r.Scan_lru.hits
    && Block_cache.misses c = r.Scan_lru.misses
    && Disk.reads d = Disk.reads rd
    && Disk.writes d = Disk.writes rd
  in
  List.for_all agree ops

let lru_props =
  [
    QCheck.Test.make ~name:"O(1) LRU matches the min-stamp scan" ~count:300 cache_schedule_arb
      lru_matches_scan;
  ]

let suite =
  [
    case "disk read/write" test_disk_read_write;
    case "disk latency charging" test_disk_latency_charging;
    case "disk bounds and size checks" test_disk_bounds_and_size_checks;
    case "disk returns private copies" test_disk_returns_private_copies;
    case "write failure injection" test_write_failure_injection;
    case "snapshot/restore" test_snapshot_restore;
    case "cache hit avoids device" test_cache_hit_avoids_device;
    case "cache write-through" test_cache_write_through;
    case "cache LRU eviction" test_cache_lru_eviction;
    case "cache invalidate" test_cache_invalidate;
    case "zero capacity disables caching" test_zero_capacity_disables_caching;
  ]
  @ List.map QCheck_alcotest.to_alcotest lru_props
