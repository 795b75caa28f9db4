(* The stackable vnode framework: null layers, pathname walking,
   counters, and the UFS vnode export. *)

open Util

let ufs_root () =
  let _, fs = fresh_ufs () in
  Ufs_vnode.root fs

let test_not_supported_defaults () =
  let v = Vnode.not_supported Vnode.No_data in
  expect_err Errno.ENOTSUP (Result.map (fun _ -> ()) (v.Vnode.getattr ()));
  expect_err Errno.ENOTSUP (Result.map (fun _ -> ()) (v.Vnode.lookup "x"));
  expect_err Errno.ENOTSUP (v.Vnode.write ~off:0 "x")

let test_ufs_vnode_roundtrip () =
  let root = ufs_root () in
  let f = ok (root.Vnode.create "file") in
  ok (f.Vnode.write ~off:0 "via vnodes");
  Alcotest.(check string) "read" "via vnodes" (ok (Vnode.read_all f));
  let attrs = ok (f.Vnode.getattr ()) in
  Alcotest.(check bool) "regular" true (attrs.Vnode.kind = Vnode.VREG);
  Alcotest.(check int) "size" 10 attrs.Vnode.size

let test_write_all_truncates () =
  let root = ufs_root () in
  let f = ok (root.Vnode.create "f") in
  ok (Vnode.write_all f "a long first version");
  ok (Vnode.write_all f "short");
  Alcotest.(check string) "replaced" "short" (ok (Vnode.read_all f))

let test_null_layer_transparent () =
  let root = ufs_root () in
  let wrapped = Null_layer.wrap_depth 4 root in
  let d = ok (wrapped.Vnode.mkdir "dir") in
  let f = ok (d.Vnode.create "file") in
  ok (f.Vnode.write ~off:0 "through 4 layers");
  (* Visible through the unwrapped stack too. *)
  Alcotest.(check string) "contents" "through 4 layers" (read_file root "dir/file")

let test_null_layer_counts_crossings () =
  let counters = Counters.create () in
  let root = Null_layer.wrap ~counters (ufs_root ()) in
  let _ = ok (root.Vnode.getattr ()) in
  let _ = ok (root.Vnode.readdir ()) in
  Alcotest.(check int) "two crossings" 2 (Counters.get counters "layer.crossings")

let test_null_layer_rename_unwraps_sibling () =
  let root = ufs_root () in
  let wrapped = Null_layer.wrap root in
  let d1 = ok (wrapped.Vnode.mkdir "d1") in
  let d2 = ok (wrapped.Vnode.mkdir "d2") in
  let _ = ok (d1.Vnode.create "f") in
  ok (d1.Vnode.rename "f" d2 "g");
  Alcotest.(check string) "moved" "" (read_file root "d2/g");
  (* A sibling from a different layer is rejected, not misinterpreted. *)
  expect_err Errno.EXDEV (d1.Vnode.rename "x" root "y")

let test_namei_walk () =
  let root = ufs_root () in
  let _ = ok (Namei.mkdir_p ~root "a/b/c") in
  create_file root "a/b/c/leaf" "found";
  Alcotest.(check string) "walk" "found" (read_file root "/a//b/c/leaf");
  expect_err Errno.ENOENT (Result.map (fun _ -> ()) (Namei.walk ~root "a/zz"));
  let parent, name = ok (Namei.walk_parent ~root "a/b/c/leaf") in
  Alcotest.(check string) "final" "leaf" name;
  let _ = ok (parent.Vnode.lookup "leaf") in
  expect_err Errno.EINVAL (Result.map (fun _ -> ()) (Namei.walk_parent ~root "/"))

let test_namei_mkdir_p_idempotent () =
  let root = ufs_root () in
  let _ = ok (Namei.mkdir_p ~root "x/y") in
  let _ = ok (Namei.mkdir_p ~root "x/y/z") in
  create_file root "x/y/z/f" "v";
  expect_err Errno.ENOTDIR (Result.map (fun _ -> ()) (Namei.mkdir_p ~root "x/y/z/f/deeper"))

let test_counters () =
  let c = Counters.create () in
  Counters.incr c "a";
  Counters.add c "a" 4;
  Counters.incr c "b";
  Alcotest.(check int) "a" 5 (Counters.get c "a");
  Alcotest.(check int) "missing" 0 (Counters.get c "zz");
  Alcotest.(check (list (pair string int))) "snapshot" [ ("a", 5); ("b", 1) ] (Counters.snapshot c);
  Counters.reset c;
  Alcotest.(check int) "reset" 0 (Counters.get c "a")

(* Random incr/add/reset on a root (set 0) and two children (sets 1, 2),
   against a model: a child holds its own adds since its last reset; the
   root holds every add to itself or to either child since the root's
   last reset.  Snapshots are sorted and hold no zero. *)
type counter_op = Add of int * string * int | Reset of int

let counter_op_gen =
  QCheck.Gen.(
    let set = int_bound 2 and key = oneofl [ "a"; "b"; "c" ] in
    frequency
      [ (6, map3 (fun s k n -> Add (s, k, n)) set key (int_range (-3) 5));
        (1, map (fun s -> Reset s) set) ])

let print_counter_op = function
  | Add (s, k, n) -> Printf.sprintf "add %d %s %d" s k n
  | Reset s -> Printf.sprintf "reset %d" s

let counters_children_law =
  QCheck.Test.make ~name:"counters: children add into their root" ~count:300
    (QCheck.make ~print:QCheck.Print.(list print_counter_op)
       QCheck.Gen.(list_size (int_bound 40) counter_op_gen))
    (fun ops ->
      let root = Counters.create () in
      let sets = [| root; Counters.child root; Counters.child root |] in
      let model = Array.init 3 (fun _ -> Hashtbl.create 4) in
      let value m k = Option.value (Hashtbl.find_opt m k) ~default:0 in
      let bump s k n = Hashtbl.replace model.(s) k (n + value model.(s) k) in
      List.iter
        (function
          | Add (s, k, n) ->
            if n = 1 then Counters.incr sets.(s) k else Counters.add sets.(s) k n;
            bump s k n;
            if s > 0 then bump 0 k n
          | Reset s ->
            Counters.reset sets.(s);
            Hashtbl.reset model.(s))
        ops;
      Array.for_all2
        (fun set m ->
          let expected =
            Hashtbl.fold (fun k n acc -> if n = 0 then acc else (k, n) :: acc) m []
            |> List.sort compare
          in
          Counters.snapshot set = expected
          && List.for_all (fun k -> Counters.get set k = value m k) [ "a"; "b"; "c" ])
        sets model)

let suite =
  [
    case "not_supported defaults" test_not_supported_defaults;
    case "UFS vnode roundtrip" test_ufs_vnode_roundtrip;
    case "write_all truncates" test_write_all_truncates;
    case "null layer is transparent" test_null_layer_transparent;
    case "null layer counts crossings" test_null_layer_counts_crossings;
    case "null layer rename unwraps siblings" test_null_layer_rename_unwraps_sibling;
    case "namei walk" test_namei_walk;
    case "namei mkdir_p idempotent" test_namei_mkdir_p_idempotent;
    case "counters" test_counters;
    QCheck_alcotest.to_alcotest counters_children_law;
  ]
