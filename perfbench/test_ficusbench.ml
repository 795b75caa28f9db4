(* The benchmark's own checks: a seed fixes every count, another seed
   changes the trace, and the correctness gate rejects diverged replicas. *)

open Ficusbench

let ops = 2000
let spec = nfs_remote

let rep seed =
  match run_rep_isolated spec ~seed ~ops with
  | Ok r -> r
  | Error e -> Alcotest.failf "repetition failed: %s" e

(* Every end-to-end metric but the wall times and the heap peak, which
   depends on when the collector runs. *)
let counts_of r =
  List.map (fun x -> (x.m_name, x.m_value))
    (List.filter
       (fun x -> not (List.mem x.m_name [ "setup_s"; "ops_per_s"; "op_us_p50"; "op_us_p99"; "heal_s"; "heap_mb_peak" ]))
       (end_to_end [ r ]))

let test_fixed_seed () =
  let a = rep 7 and b = rep 7 in
  Alcotest.(check (list string)) "gate passes" [] a.failures;
  Alcotest.(check (list string)) "no count drifts" [] (count_drift a b);
  Alcotest.(check (list (pair string (float 0.0)))) "end-to-end counts" (counts_of a) (counts_of b)

let test_other_seed () =
  let ops_of seed = List.of_seq (Seq.take ops (Workload.trace (trace_config spec ~seed))) in
  Alcotest.(check bool) "trace differs" false (ops_of 7 = ops_of 8);
  Alcotest.(check bool) "counts differ" false (counts_of (rep 7) = counts_of (rep 8))

let test_gate_rejects_divergence () =
  let ctx = setup spec ~seed:7 ~ops in
  let stats, _, _ = replay ctx ~ops in
  let converged, _, _ = settle ~find_converge:false ctx in
  let gate () = gate ctx ~ops ~converged ~errors:stats.Workload.tr_errors [] in
  Alcotest.(check (list string)) "converged run passes" [] (gate ());
  (* An update applied to one replica's physical layer only, with no
     propagation or reconciliation after it. *)
  let phys = Option.get (Cluster.replica (Cluster.host ctx.cluster 3) ctx.vref) in
  let root = Physical.root phys in
  let f = get "walk" (Result.bind (root.Vnode.lookup "u0") (fun d -> d.Vnode.lookup "f0")) in
  get "write" (f.Vnode.write ~off:0 "diverged");
  Alcotest.(check bool) "diverged replicas fail the gate" true (gate () <> [])

let () =
  Alcotest.run "ficusbench"
    [
      ( "benchmark",
        [
          Alcotest.test_case "fixed seed reproduces every count" `Quick test_fixed_seed;
          Alcotest.test_case "different seed changes the trace" `Quick test_other_seed;
          Alcotest.test_case "gate rejects diverged replicas" `Quick test_gate_rejects_divergence;
        ] );
    ]
