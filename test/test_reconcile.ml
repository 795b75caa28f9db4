(* The reconciliation protocol: subtree walks, delete/update conflicts,
   orphan preservation, tombstone GC end-to-end. *)

open Util

let test_subtree_reconciles_nested_changes () =
  let cluster =
    Cluster.create ~nhosts:2 ~faults:{ Sim_net.no_faults with loss = 1.0 } ()
  in
  let vref = ok (Cluster.create_volume cluster ~on:[ 0; 1 ]) in
  let root0 = ok (Cluster.logical_root cluster 0 vref) in
  let _ = ok (Namei.mkdir_p ~root:root0 "a/b") in
  create_file root0 "a/b/deep" "nested";
  create_file root0 "top" "shallow";
  let (_ : int) = ok (Cluster.converge cluster vref ()) in
  let root1 = ok (Cluster.logical_root cluster 1 vref) in
  Alcotest.(check string) "deep file" "nested" (read_file root1 "a/b/deep");
  Alcotest.(check string) "top file" "shallow" (read_file root1 "top")

let test_delete_update_conflict_orphans_contents () =
  (* One partition removes a directory; the other adds to it.  The
     tombstone wins, but the new content is preserved in the orphanage
     and the conflict reported. *)
  let cluster = Cluster.create ~nhosts:2 () in
  let vref = ok (Cluster.create_volume cluster ~on:[ 0; 1 ]) in
  let root0 = ok (Cluster.logical_root cluster 0 vref) in
  let _ = ok (root0.Vnode.mkdir "shared") in
  let (_ : int) = Cluster.run_propagation cluster in
  let (_ : int) = ok (Cluster.converge cluster vref ()) in
  Cluster.partition cluster [ [ 0 ]; [ 1 ] ];
  let root1 = ok (Cluster.logical_root cluster 1 vref) in
  create_file root1 "shared/precious" "do not lose me";
  ok (root0.Vnode.rmdir "shared");
  Cluster.heal cluster;
  let (_ : int) = ok (Cluster.converge cluster vref ~max_rounds:20 ()) in
  (* The directory is gone everywhere... *)
  let root1 = ok (Cluster.logical_root cluster 1 vref) in
  expect_err Errno.ENOENT (Result.map (fun _ -> ()) (root1.Vnode.lookup "shared"));
  (* ...but host1 preserved the contents and reported the conflict. *)
  let phys1 = Option.get (Cluster.replica (Cluster.host cluster 1) vref) in
  let orphaned =
    List.exists
      (fun e ->
        match e.Conflict_log.detail with
        | Conflict_log.Removed_while_updated _ -> true
        | _ -> false)
      (Conflict_log.all (Physical.conflicts phys1))
  in
  Alcotest.(check bool) "orphan conflict reported" true orphaned

let test_rename_rename_conflict_keeps_both_names () =
  (* The same directory renamed differently in two partitions: after
     reconciliation the directory has both names (paper §2.5 fn.3). *)
  let cluster = Cluster.create ~nhosts:2 () in
  let vref = ok (Cluster.create_volume cluster ~on:[ 0; 1 ]) in
  let root0 = ok (Cluster.logical_root cluster 0 vref) in
  let d = ok (root0.Vnode.mkdir "original") in
  ignore d;
  create_file root0 "original/inside" "kept";
  let (_ : int) = Cluster.run_propagation cluster in
  let (_ : int) = ok (Cluster.converge cluster vref ()) in
  Cluster.partition cluster [ [ 0 ]; [ 1 ] ];
  let root1 = ok (Cluster.logical_root cluster 1 vref) in
  ok (root0.Vnode.rename "original" root0 "name-at-0");
  ok (root1.Vnode.rename "original" root1 "name-at-1");
  Cluster.heal cluster;
  let (_ : int) = ok (Cluster.converge cluster vref ~max_rounds:20 ()) in
  let names root =
    ok (root.Vnode.readdir ()) |> List.map (fun e -> e.Vnode.entry_name) |> List.sort compare
  in
  let n0 = names root0 and n1 = names root1 in
  Alcotest.(check (list string)) "same view everywhere" n0 n1;
  Alcotest.(check (list string)) "both names retained" [ "name-at-0"; "name-at-1" ] n0;
  (* Both names reach the same directory contents. *)
  Alcotest.(check string) "via name-at-0" "kept" (read_file root0 "name-at-0/inside");
  Alcotest.(check string) "via name-at-1" "kept" (read_file root0 "name-at-1/inside")

let test_tombstones_gced_after_full_rounds () =
  let cluster = Cluster.create ~nhosts:2 () in
  let vref = ok (Cluster.create_volume cluster ~on:[ 0; 1 ]) in
  let root0 = ok (Cluster.logical_root cluster 0 vref) in
  create_file root0 "doomed" "x";
  let (_ : int) = Cluster.run_propagation cluster in
  let (_ : int) = ok (Cluster.converge cluster vref ()) in
  ok (root0.Vnode.remove "doomed");
  let (_ : int) = ok (Cluster.converge cluster vref ~max_rounds:20 ()) in
  (* After enough rounds, no tombstone remains on either replica. *)
  List.iter
    (fun i ->
      let phys = Option.get (Cluster.replica (Cluster.host cluster i) vref) in
      let fdir = ok (Physical.fetch_dir phys []) in
      Alcotest.(check int)
        (Printf.sprintf "no tombstones at host%d" i)
        0
        (List.length fdir.Fdir.entries))
    [ 0; 1 ]

let test_no_lost_updates_under_churn () =
  (* Interleave updates, partitions and reconciliations; at the end every
     surviving file's latest write must be present somewhere and, after
     convergence, everywhere. *)
  let cluster = Cluster.create ~nhosts:3 () in
  let vref = ok (Cluster.create_volume cluster ~on:[ 0; 1; 2 ]) in
  let roots = List.map (fun i -> ok (Cluster.logical_root cluster i vref)) [ 0; 1; 2 ] in
  let root0 = List.nth roots 0 in
  List.iteri (fun i _ -> create_file root0 (Printf.sprintf "file%d" i) "init") roots;
  let (_ : int) = Cluster.run_propagation cluster in
  let (_ : int) = ok (Cluster.converge cluster vref ()) in
  (* Disjoint updates in a 3-way partition (different files per host, so
     no conflicts). *)
  Cluster.partition cluster [ [ 0 ]; [ 1 ]; [ 2 ] ];
  List.iteri (fun i root -> write_file root (Printf.sprintf "file%d" i) (Printf.sprintf "by%d" i)) roots;
  Cluster.heal cluster;
  let (_ : int) = ok (Cluster.converge cluster vref ~max_rounds:20 ()) in
  List.iteri
    (fun reader root ->
      List.iteri
        (fun i _ ->
          Alcotest.(check string)
            (Printf.sprintf "host%d sees file%d" reader i)
            (Printf.sprintf "by%d" i)
            (read_file root (Printf.sprintf "file%d" i)))
        roots)
    roots

let test_resolve_conflict_invalid_kind_rejected () =
  let cluster = Cluster.create ~nhosts:2 () in
  let vref = ok (Cluster.create_volume cluster ~on:[ 0; 1 ]) in
  let phys0 = Option.get (Cluster.replica (Cluster.host cluster 0) vref) in
  let entry =
    Conflict_log.report (Physical.conflicts phys0) ~vref ~fidpath:[] ~fid:Ids.root_fid
      ~owner_uid:0 ~detected_at:0
      (Conflict_log.Name_collision { name = "x"; births = [] })
  in
  expect_err Errno.EINVAL (Reconcile.resolve_file_conflict ~local:phys0 entry ~keep:`Local)

let test_conflict_superseded_everywhere_after_resolution () =
  (* Resolving a conflict at one replica must clear the pending report at
     the other replica too, once the dominating resolution propagates. *)
  let cluster = Cluster.create ~nhosts:2 () in
  let vref = ok (Cluster.create_volume cluster ~on:[ 0; 1 ]) in
  let root0 = ok (Cluster.logical_root cluster 0 vref) in
  create_file root0 "doc" "base";
  let (_ : int) = Cluster.run_propagation cluster in
  Cluster.partition cluster [ [ 0 ]; [ 1 ] ];
  let root1 = ok (Cluster.logical_root cluster 1 vref) in
  write_file root0 "doc" "A";
  write_file root1 "doc" "B";
  Cluster.heal cluster;
  let (_ : Reconcile.stats) = ok (Cluster.reconcile_ring cluster vref) in
  let phys i = Option.get (Cluster.replica (Cluster.host cluster i) vref) in
  let pending i = List.length (Conflict_log.pending (Physical.conflicts (phys i))) in
  Alcotest.(check bool) "both sides reported" true (pending 0 = 1 && pending 1 = 1);
  (* Resolve at host0; converge; host1's report must close by itself. *)
  let entry = List.hd (Conflict_log.pending (Physical.conflicts (phys 0))) in
  ok (Reconcile.resolve_file_conflict ~local:(phys 0) entry ~keep:(`Merged "AB"));
  let (_ : int) = Cluster.run_propagation cluster in
  let (_ : int) = ok (Cluster.converge cluster vref ~max_rounds:20 ()) in
  Alcotest.(check int) "host0 clear" 0 (pending 0);
  Alcotest.(check int) "host1 superseded" 0 (pending 1);
  Alcotest.(check string) "content everywhere" "AB" (read_file root1 "doc")

let suite =
  [
    case "subtree reconciles nested changes" test_subtree_reconciles_nested_changes;
    case "conflict superseded everywhere after resolution"
      test_conflict_superseded_everywhere_after_resolution;
    case "delete/update conflict preserves orphans"
      test_delete_update_conflict_orphans_contents;
    case "rename/rename keeps both names" test_rename_rename_conflict_keeps_both_names;
    case "tombstones GCed after full rounds" test_tombstones_gced_after_full_rounds;
    case "no lost updates under churn" test_no_lost_updates_under_churn;
    case "resolve rejects non-file conflicts" test_resolve_conflict_invalid_kind_rejected;
  ]
