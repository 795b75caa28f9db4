(* Keep the headline reproduction results under test: the fast
   experiments run inside `dune runtest` and must HOLD.  (The full set,
   including the slower sweeps, the timing benches and SCALE, runs from
   bench/main.exe.) *)

let verdict_holds name () =
  match Experiments.run_by_name name with
  | None -> Alcotest.failf "unknown experiment %s" name
  | Some v ->
    Alcotest.(check bool)
      (Printf.sprintf "%s: %s" v.Experiments.experiment v.Experiments.claim)
      true v.Experiments.holds

(* --check-schema on artifacts written from synthetic verdicts: the
   smoke set, each experiment reporting exactly its declared keys
   unless [edit] changes that. *)
let artifact ?(edit = fun _ keys -> keys) () =
  Experiments.to_json ~mode:"smoke"
    (List.filter_map
       (fun (e : Experiments.entry) ->
         if not e.smoke then None
         else
           Some
             {
               Experiments.experiment = String.uppercase_ascii e.name;
               claim = "c";
               holds = true;
               detail = "d";
               metrics =
                 List.map (fun k -> (k, Experiments.Int 0)) (edit e.name e.keys);
             })
       Experiments.registry)

let accepted text = Result.is_ok (Experiments.check_schema text)

let schema_accepts_writer () =
  Alcotest.(check bool) "writer's artifact" true (accepted (artifact ()))

let schema_rejects_non_object () =
  List.iter
    (fun text -> Alcotest.(check bool) text false (accepted text))
    [ ""; "[]"; "42"; "\"schema\""; "{\"schema\": "; "not json" ]

let schema_rejects_missing_key () =
  List.iter
    (fun (e : Experiments.entry) ->
      List.iter
        (fun key ->
          let edit name keys =
            if name = e.name then List.filter (( <> ) key) keys else keys
          in
          Alcotest.(check bool) (e.name ^ " without " ^ key) false
            (accepted (artifact ~edit ())))
        e.keys)
    Experiments.registry

let schema_rejects_key_elsewhere () =
  let edit name keys =
    match name with
    | "obslag" -> List.filter (( <> ) "lag_p50") keys
    | "reconscale" -> "lag_p50" :: keys
    | _ -> keys
  in
  Alcotest.(check bool) "lag_p50 under reconscale" false
    (accepted (artifact ~edit ()))

let suite =
  List.map
    (fun name -> Alcotest.test_case ("experiment " ^ name) `Slow (verdict_holds name))
    (List.filter (( <> ) "scale") Experiments.smoke_names)
  @ [
      Alcotest.test_case "schema accepts the writer's artifact" `Quick
        schema_accepts_writer;
      Alcotest.test_case "schema rejects non-objects" `Quick
        schema_rejects_non_object;
      Alcotest.test_case "schema rejects a missing declared key" `Quick
        schema_rejects_missing_key;
      Alcotest.test_case "schema rejects a key under another experiment" `Quick
        schema_rejects_key_elsewhere;
    ]
