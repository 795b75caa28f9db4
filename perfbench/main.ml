(* Command line of the Ficus benchmark:

     main.exe --workload NAME --seed N --seconds S --trace 0|1 [--trace-out FILE]

   Repeats set-up + replay + convergence on fresh clusters until S
   seconds have passed.  With --trace 0 it prints the end-to-end
   metrics; with --trace 1 it alternates untraced and traced
   repetitions and prints the per-layer metrics, writing the last traced
   repetition's spans to --trace-out.  The last line of stdout is one
   JSON object; a run whose correctness gate fails prints no metric and
   exits 1. *)

open Ficusbench

(* The result line: the last line of stdout. *)
let print_result ~correct ~attempted ~failed metrics =
  Printf.printf {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|} correct
    attempted failed
    (String.concat ", "
       (List.map
          (fun x -> Printf.sprintf {|"%s": {"value": %.17g, "unit": "%s"}|} x.m_name x.m_value x.m_unit)
          metrics));
  print_newline ()

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let trace_out = ref "" in
  let spec_list =
    [
      ("--workload", Arg.Set_string workload, "NAME zipf-local | nfs-remote | partition-heal");
      ("--seed", Arg.Set_int seed, "N trace and cluster seed");
      ("--seconds", Arg.Set_int seconds, "S repeat until S seconds have passed");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--trace-out", Arg.Set_string trace_out, "FILE where a traced run writes its spans");
    ]
  in
  let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse spec_list (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let spec =
    match find_workload !workload with
    | Some s -> s
    | None ->
      prerr_endline ("unknown workload: " ^ !workload);
      exit 2
  in
  if !trace <> 0 && !trace <> 1 then (prerr_endline "--trace takes 0 or 1"; exit 2);
  let traced_run = !trace = 1 in
  let start = now_ns () in
  let deadline = start +. (float_of_int !seconds *. 1e9) in
  (* A traced run needs both kinds of repetition to report the overhead. *)
  let min_reps = if traced_run then 2 else min_untraced_reps in
  let rec loop i acc =
    if i >= min_reps && now_ns () >= deadline then List.rev acc
    else begin
      let traced = traced_run && i mod 2 = 1 in
      let out = if traced && !trace_out <> "" then Some !trace_out else None in
      match run_rep_isolated ~traced ?trace_out:out spec ~seed:!seed ~ops:default_ops with
      | Error e ->
        prerr_endline ("repetition failed: " ^ e);
        print_result ~correct:false ~attempted:default_ops ~failed:0 [];
        exit 1
      | Ok r ->
        Printf.eprintf
          "rep %d%s: setup %.3fs replay %.3fs heal %.3fs%s heap %.0f words (untimed walks %.3fs)%s\n%!"
          i (if traced then " (traced)" else "") r.setup_s r.replay_s r.heal_s
          (if traced then Printf.sprintf ", identical after %d ticks" r.converge_ticks else "")
          r.heap_words_peak r.check_s (if r.failures = [] then "" else " FAILED");
        loop (i + 1) (r :: acc)
    end
  in
  let reps = loop 0 [] in
  let attempted = List.fold_left (fun a r -> a + r.ops) 0 reps in
  let failed = List.fold_left (fun a r -> a + r.errors) 0 reps in
  let r0 = List.hd reps in
  let drift = List.sort_uniq compare (List.concat_map (count_drift r0) reps) in
  let failures =
    List.concat_map (fun r -> r.failures) reps
    @ List.map (Printf.sprintf "%s differs between repetitions of one seed") drift
  in
  if failures <> [] then begin
    List.iter (fun f -> prerr_endline ("correctness gate: " ^ f)) (List.sort_uniq compare failures);
    print_result ~correct:false ~attempted ~failed [];
    exit 1
  end;
  let traced = List.filter (fun r -> r.traced) reps in
  let untraced = List.filter (fun r -> not r.traced) reps in
  let metrics = if traced_run then per_layer ~traced ~untraced else end_to_end untraced in
  Printf.printf "# %s seed %d: %d repetitions of %d ops, one latency sample per op\n" spec.name
    !seed (List.length reps) default_ops;
  List.iter (fun x -> Printf.printf "# %-36s %14.4f %s\n" x.m_name x.m_value x.m_unit) metrics;
  print_result ~correct:true ~attempted ~failed metrics
