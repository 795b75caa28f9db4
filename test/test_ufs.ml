(* The UFS substrate: inodes, directories, allocation, fsck. *)

open Util

let fsck fs =
  match Ufs.check fs with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "fsck: %s" msg

let test_mkfs_mount () =
  let disk, fs = fresh_ufs () in
  fsck fs;
  let counter = ref 1000 in
  let now () = incr counter; !counter in
  let fs2 = ok (Ufs.mount ~now disk) in
  let attrs = ok (Ufs.stat fs2 (Ufs.root fs2)) in
  Alcotest.(check bool) "root is a dir" true (attrs.Ufs.kind = Ufs.Dir)

let test_mount_rejects_unformatted () =
  let disk = Disk.create ~nblocks:64 ~block_size:1024 () in
  expect_err Errno.EINVAL (Result.map (fun _ -> ()) (Ufs.mount ~now:(fun () -> 0) disk))

let test_create_write_read () =
  let _, fs = fresh_ufs () in
  let f = ok (Ufs.create fs ~dir:(Ufs.root fs) "file") in
  ok (Ufs.write fs f ~off:0 "hello world");
  Alcotest.(check string) "read" "hello world" (ok (Ufs.read fs f ~off:0 ~len:100));
  Alcotest.(check string) "offset read" "world" (ok (Ufs.read fs f ~off:6 ~len:5));
  Alcotest.(check string) "past eof" "" (ok (Ufs.read fs f ~off:100 ~len:10));
  fsck fs

let test_overwrite_and_extend () =
  let _, fs = fresh_ufs () in
  let f = ok (Ufs.create fs ~dir:(Ufs.root fs) "file") in
  ok (Ufs.write fs f ~off:0 "aaaaaaaaaa");
  ok (Ufs.write fs f ~off:5 "BB");
  Alcotest.(check string) "patched" "aaaaaBBaaa" (ok (Ufs.read fs f ~off:0 ~len:10));
  ok (Ufs.write fs f ~off:20 "tail");
  let s = ok (Ufs.read fs f ~off:0 ~len:24) in
  Alcotest.(check int) "extended size" 24 (String.length s);
  Alcotest.(check string) "gap is zeros" (String.make 10 '\000') (String.sub s 10 10);
  Alcotest.(check string) "tail" "tail" (String.sub s 20 4);
  fsck fs

let test_large_file_spans_indirect_blocks () =
  let _, fs = fresh_ufs ~blocks:4096 () in
  let f = ok (Ufs.create fs ~dir:(Ufs.root fs) "big") in
  (* 1 KiB blocks, 12 direct: write 40 KiB to exercise the indirect
     block. *)
  let chunk = String.make 1024 'x' in
  for i = 0 to 39 do
    ok (Ufs.write fs f ~off:(i * 1024) chunk)
  done;
  let attrs = ok (Ufs.stat fs f) in
  Alcotest.(check int) "size" (40 * 1024) attrs.Ufs.size;
  Alcotest.(check string) "far read" "xxxx" (ok (Ufs.read fs f ~off:(39 * 1024) ~len:4));
  ok (Ufs.truncate fs f 100);
  Alcotest.(check int) "shrunk" 100 (ok (Ufs.stat fs f)).Ufs.size;
  fsck fs

let test_truncate_zeroes_tail () =
  let _, fs = fresh_ufs () in
  let f = ok (Ufs.create fs ~dir:(Ufs.root fs) "file") in
  ok (Ufs.write fs f ~off:0 "abcdefghij");
  ok (Ufs.truncate fs f 4);
  ok (Ufs.truncate fs f 10);
  Alcotest.(check string) "tail re-reads as zeros" ("abcd" ^ String.make 6 '\000')
    (ok (Ufs.read fs f ~off:0 ~len:10));
  fsck fs

let test_mkdir_lookup_entries () =
  let _, fs = fresh_ufs () in
  let root = Ufs.root fs in
  let d = ok (Ufs.mkdir fs ~dir:root "sub") in
  let f = ok (Ufs.create fs ~dir:d "inner") in
  Alcotest.(check int) "lookup" f (ok (Ufs.dir_lookup fs d "inner"));
  expect_err Errno.ENOENT (Ufs.dir_lookup fs d "nope");
  expect_err Errno.ENOTDIR (Ufs.dir_lookup fs f "x");
  let entries = ok (Ufs.dir_entries fs root) in
  Alcotest.(check (list string)) "root entries" [ "sub" ]
    (List.map (fun (n, _, _) -> n) entries);
  fsck fs

let test_create_existing_rejected () =
  let _, fs = fresh_ufs () in
  let root = Ufs.root fs in
  let _ = ok (Ufs.create fs ~dir:root "x") in
  expect_err Errno.EEXIST (Ufs.create fs ~dir:root "x");
  expect_err Errno.EEXIST (Ufs.mkdir fs ~dir:root "x")

let test_invalid_names_rejected () =
  let _, fs = fresh_ufs () in
  let root = Ufs.root fs in
  expect_err Errno.EINVAL (Ufs.create fs ~dir:root "");
  expect_err Errno.EINVAL (Ufs.create fs ~dir:root "a/b");
  expect_err Errno.ENAMETOOLONG (Ufs.create fs ~dir:root (String.make 300 'n'))

let test_unlink_frees_space () =
  let _, fs = fresh_ufs () in
  let root = Ufs.root fs in
  let free0 = ok (Ufs.nfree_blocks fs) in
  let f = ok (Ufs.create fs ~dir:root "file") in
  ok (Ufs.write fs f ~off:0 (String.make 4096 'x'));
  Alcotest.(check bool) "blocks consumed" true (ok (Ufs.nfree_blocks fs) < free0);
  ok (Ufs.unlink fs ~dir:root "file");
  Alcotest.(check int) "blocks restored" free0 (ok (Ufs.nfree_blocks fs));
  expect_err Errno.ENOENT (Ufs.dir_lookup fs root "file");
  fsck fs

let test_unlink_respects_links () =
  let _, fs = fresh_ufs () in
  let root = Ufs.root fs in
  let f = ok (Ufs.create fs ~dir:root "a") in
  ok (Ufs.write fs f ~off:0 "shared");
  ok (Ufs.link fs ~dir:root "b" f);
  Alcotest.(check int) "nlink" 2 (ok (Ufs.stat fs f)).Ufs.nlink;
  ok (Ufs.unlink fs ~dir:root "a");
  Alcotest.(check string) "alive via b" "shared" (ok (Ufs.read fs f ~off:0 ~len:6));
  ok (Ufs.unlink fs ~dir:root "b");
  expect_err Errno.ESTALE (Result.map (fun _ -> ()) (Ufs.stat fs f));
  fsck fs

let test_rmdir_rules () =
  let _, fs = fresh_ufs () in
  let root = Ufs.root fs in
  let d = ok (Ufs.mkdir fs ~dir:root "d") in
  let _ = ok (Ufs.create fs ~dir:d "f") in
  expect_err Errno.ENOTEMPTY (Ufs.rmdir fs ~dir:root "d");
  ok (Ufs.unlink fs ~dir:d "f");
  ok (Ufs.rmdir fs ~dir:root "d");
  expect_err Errno.ENOENT (Ufs.dir_lookup fs root "d");
  fsck fs

let test_dir_hard_links () =
  (* Ficus needs directory links (the namespace is a DAG, paper §2.5). *)
  let _, fs = fresh_ufs () in
  let root = Ufs.root fs in
  let d = ok (Ufs.mkdir fs ~dir:root "d1") in
  ok (Ufs.link fs ~dir:root "d2" d);
  Alcotest.(check int) "nlink 2" 2 (ok (Ufs.stat fs d)).Ufs.nlink;
  let _ = ok (Ufs.create fs ~dir:d "inner") in
  (* Removing one name of a non-empty multi-linked dir is allowed... *)
  ok (Ufs.rmdir fs ~dir:root "d1");
  Alcotest.(check int) "lookup via d2" d (ok (Ufs.dir_lookup fs root "d2"));
  (* ...but removing the last name still requires empty. *)
  expect_err Errno.ENOTEMPTY (Ufs.rmdir fs ~dir:root "d2");
  ok (Ufs.unlink fs ~dir:d "inner");
  ok (Ufs.rmdir fs ~dir:root "d2");
  fsck fs

let test_rename_basic_and_replace () =
  let _, fs = fresh_ufs () in
  let root = Ufs.root fs in
  let d1 = ok (Ufs.mkdir fs ~dir:root "d1") in
  let d2 = ok (Ufs.mkdir fs ~dir:root "d2") in
  let f = ok (Ufs.create fs ~dir:d1 "f") in
  ok (Ufs.write fs f ~off:0 "payload");
  ok (Ufs.rename fs ~sdir:d1 ~sname:"f" ~ddir:d2 ~dname:"g");
  expect_err Errno.ENOENT (Ufs.dir_lookup fs d1 "f");
  Alcotest.(check int) "moved" f (ok (Ufs.dir_lookup fs d2 "g"));
  (* Replace an existing destination. *)
  let g2 = ok (Ufs.create fs ~dir:d2 "h") in
  ok (Ufs.write fs g2 ~off:0 "doomed");
  ok (Ufs.rename fs ~sdir:d2 ~sname:"g" ~ddir:d2 ~dname:"h");
  Alcotest.(check int) "replaced" f (ok (Ufs.dir_lookup fs d2 "h"));
  expect_err Errno.ESTALE (Result.map (fun _ -> ()) (Ufs.stat fs g2));
  fsck fs

let test_rename_same_object_noop () =
  let _, fs = fresh_ufs () in
  let root = Ufs.root fs in
  let f = ok (Ufs.create fs ~dir:root "a") in
  ok (Ufs.link fs ~dir:root "b" f);
  ok (Ufs.rename fs ~sdir:root ~sname:"a" ~ddir:root ~dname:"b");
  (* POSIX: same file under both names -> no-op, both remain. *)
  Alcotest.(check int) "a stays" f (ok (Ufs.dir_lookup fs root "a"));
  Alcotest.(check int) "b stays" f (ok (Ufs.dir_lookup fs root "b"));
  fsck fs

let test_enospc () =
  let _, fs = fresh_ufs ~blocks:96 ~block_size:1024 () in
  let f = ok (Ufs.create fs ~dir:(Ufs.root fs) "hog") in
  let rec fill off =
    match Ufs.write fs f ~off (String.make 1024 'x') with
    | Ok () -> fill (off + 1024)
    | Error e -> e
  in
  Alcotest.check errno "fills up" Errno.ENOSPC (fill 0)

let test_inode_exhaustion () =
  let _, fs = fresh_ufs ~blocks:2048 () in
  let root = Ufs.root fs in
  let rec create i =
    match Ufs.create fs ~dir:root (Printf.sprintf "f%d" i) with
    | Ok _ -> create (i + 1)
    | Error e -> e
  in
  Alcotest.check errno "runs out of inodes" Errno.ENFILE (create 0)

let test_generation_bumped_on_reuse () =
  let _, fs = fresh_ufs () in
  let root = Ufs.root fs in
  let f1 = ok (Ufs.create fs ~dir:root "a") in
  let gen1 = (ok (Ufs.stat fs f1)).Ufs.gen in
  ok (Ufs.unlink fs ~dir:root "a");
  let f2 = ok (Ufs.create fs ~dir:root "b") in
  if f1 = f2 then
    Alcotest.(check bool) "gen bumped" true ((ok (Ufs.stat fs f2)).Ufs.gen > gen1)

let test_persistence_across_mount () =
  let disk, fs = fresh_ufs () in
  let d = ok (Ufs.mkdir fs ~dir:(Ufs.root fs) "keep") in
  let f = ok (Ufs.create fs ~dir:d "data") in
  ok (Ufs.write fs f ~off:0 "durable");
  (* Remount with a cold cache; everything must come from the media. *)
  let fs2 = ok (Ufs.mount ~now:(fun () -> 0) disk) in
  let d' = ok (Ufs.dir_lookup fs2 (Ufs.root fs2) "keep") in
  let f' = ok (Ufs.dir_lookup fs2 d' "data") in
  Alcotest.(check string) "contents survive" "durable" (ok (Ufs.read fs2 f' ~off:0 ~len:7));
  fsck fs2

let test_directory_spanning_blocks () =
  (* ~80 entries x ~23 bytes exceeds one 1 KiB block: directory data must
     parse correctly across block boundaries and keep working after
     deletions shrink it back. *)
  let _, fs = fresh_ufs ~blocks:4096 () in
  let root = Ufs.root fs in
  let d = ok (Ufs.mkdir fs ~dir:root "big") in
  for i = 0 to 79 do
    let _ = ok (Ufs.create fs ~dir:d (Printf.sprintf "entry-%02d-padpadpad" i)) in
    ()
  done;
  Alcotest.(check int) "all present" 80 (List.length (ok (Ufs.dir_entries fs d)));
  Alcotest.(check bool) "dir data spans blocks" true ((ok (Ufs.stat fs d)).Ufs.size > 1024);
  (* Random-access lookups across the boundary. *)
  let _ = ok (Ufs.dir_lookup fs d "entry-00-padpadpad") in
  let _ = ok (Ufs.dir_lookup fs d "entry-79-padpadpad") in
  (* Shrink below one block again. *)
  for i = 0 to 75 do
    ok (Ufs.unlink fs ~dir:d (Printf.sprintf "entry-%02d-padpadpad" i))
  done;
  Alcotest.(check int) "four left" 4 (List.length (ok (Ufs.dir_entries fs d)));
  fsck fs

let test_sparse_file_reads_zeros () =
  let _, fs = fresh_ufs () in
  let f = ok (Ufs.create fs ~dir:(Ufs.root fs) "sparse") in
  ok (Ufs.write fs f ~off:(5 * 1024) "end");
  Alcotest.(check string) "hole is zeros" (String.make 16 '\000')
    (ok (Ufs.read fs f ~off:1024 ~len:16));
  fsck fs

(* The I/O-charging contract E2/E3 rely on: the parsed-directory cache
   survives Block_cache.invalidate, yet a lookup it answers must cost the
   same device reads as on a freshly mounted file system, whose
   directory cache is empty.  "big" outgrows the 12 direct blocks, so
   the indirect block is charged too. *)
let test_dir_cache_charges_cold_reads () =
  let disk, fs = fresh_ufs ~blocks:4096 () in
  let root = Ufs.root fs in
  let big = ok (Ufs.mkdir fs ~dir:root "big") in
  let name i = Printf.sprintf "entry-%04d-padpadpad" i in
  for i = 0 to 599 do
    ignore (ok (Ufs.create fs ~dir:big (name i)))
  done;
  let small = ok (Ufs.mkdir fs ~dir:root "small") in
  ignore (ok (Ufs.mkdir fs ~dir:small "sub"));
  Alcotest.(check bool) "big uses the indirect block" true
    ((ok (Ufs.stat fs big)).Ufs.size > 12 * 1024);
  let lookups fs =
    let look dir n = Ufs.dir_lookup fs dir n in
    let r = Ufs.root fs in
    let b = ok (look r "big") and s = ok (look r "small") in
    let sub = ok (look s "sub") in
    [ look b (name 0); look b (name 599); look b "missing"; look sub "nope"; look r "small" ]
    @ [ Ok (List.length (ok (Ufs.dir_entries fs b))) ]
  in
  let cost fs =
    Block_cache.reset_stats (Ufs.cache fs);
    Disk.reset_stats disk;
    (* Twice: the second pass hits in the buffer cache. *)
    let results = lookups fs @ lookups fs in
    let c = Ufs.cache fs in
    (results, Disk.reads disk, Block_cache.hits c, Block_cache.misses c)
  in
  ignore (lookups fs);
  Block_cache.invalidate (Ufs.cache fs);
  let warm_results, warm_reads, warm_hits, warm_misses = cost fs in
  let fresh = ok (Ufs.mount ~now:(fun () -> 0) disk) in
  let cold_results, cold_reads, cold_hits, cold_misses = cost fresh in
  Alcotest.(check bool) "same answers" true (warm_results = cold_results);
  Alcotest.(check bool) "reads reach the device" true (cold_reads > 0);
  Alcotest.(check int) "device reads" cold_reads warm_reads;
  Alcotest.(check int) "cache hits" cold_hits warm_hits;
  Alcotest.(check int) "cache misses" cold_misses warm_misses

let suite =
  [
    case "mkfs and mount" test_mkfs_mount;
    case "mount rejects unformatted disk" test_mount_rejects_unformatted;
    case "create, write, read" test_create_write_read;
    case "overwrite and extend" test_overwrite_and_extend;
    case "large file uses indirect blocks" test_large_file_spans_indirect_blocks;
    case "truncate zeroes the tail" test_truncate_zeroes_tail;
    case "mkdir, lookup, entries" test_mkdir_lookup_entries;
    case "create existing rejected" test_create_existing_rejected;
    case "invalid names rejected" test_invalid_names_rejected;
    case "unlink frees space" test_unlink_frees_space;
    case "unlink respects hard links" test_unlink_respects_links;
    case "rmdir rules" test_rmdir_rules;
    case "directory hard links (DAG)" test_dir_hard_links;
    case "rename: move and replace" test_rename_basic_and_replace;
    case "rename same object is a no-op" test_rename_same_object_noop;
    case "ENOSPC when full" test_enospc;
    case "ENFILE when inodes exhausted" test_inode_exhaustion;
    case "generation bumped on inode reuse" test_generation_bumped_on_reuse;
    case "persistence across remount" test_persistence_across_mount;
    case "directory spanning blocks" test_directory_spanning_blocks;
    case "sparse files read zeros" test_sparse_file_reads_zeros;
    case "directory cache charges cold reads" test_dir_cache_charges_cold_reads;
  ]
