(* Shared helpers for the test suites. *)

let errno = Alcotest.testable Errno.pp Errno.equal

(* Unwrap a result or fail the test with the error. *)
let ok ?(msg = "unexpected error") = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" msg (Errno.to_string e)

let expect_err expected = function
  | Ok _ -> Alcotest.failf "expected %s, got Ok" (Errno.to_string expected)
  | Error e -> Alcotest.check errno "errno" expected e

let vv_testable = Alcotest.testable Version_vector.pp Version_vector.equal

(* A small in-memory UFS for unit tests. *)
let fresh_ufs ?(blocks = 2048) ?(block_size = 1024) ?(cache = 128) ?(journal_blocks = 0) () =
  let disk = Disk.create ~nblocks:blocks ~block_size () in
  let counter = ref 0 in
  let now () = incr counter; !counter in
  (disk, ok ~msg:"mkfs" (Ufs.mkfs ~cache_capacity:cache ~journal_blocks ~now disk))

let read_file root path =
  let v = ok (Namei.walk ~root path) in
  ok (Vnode.read_all v)

let write_file root path data =
  let v = ok (Namei.walk ~root path) in
  ok (Vnode.write_all v data)

let create_file root path data =
  let parent, name = ok (Namei.walk_parent ~root path) in
  let v = ok (parent.Vnode.create name) in
  ok (Vnode.write_all v data)

let case name f = Alcotest.test_case name `Quick f
