(* The replicated control-plane registry.  Pure data + deterministic
   application; Raft owns ordering and durability.  The same
   length-prefixed encoding as the Raft hard state keeps host names and
   labels safe to embed in log entries and snapshots. *)

type cmd =
  | Register_volume of {
      rv_alloc : int;
      rv_vol : int;
      rv_label : string;
      rv_replicas : (int * string) list;
    }
  | Set_replicas of {
      sr_alloc : int;
      sr_vol : int;
      sr_replicas : (int * string) list;
    }
  | Set_graft of { sg_path : string; sg_alloc : int; sg_vol : int }

(* ------------------------------------------------------------------ *)
(* Encoding                                                            *)

let buf_str b s = Printf.bprintf b "%d:%s" (String.length s) s

let buf_replicas b reps =
  Printf.bprintf b "%d" (List.length reps);
  List.iter
    (fun (rid, h) ->
      Printf.bprintf b " %d " rid;
      buf_str b h)
    reps

let encode_cmd cmd =
  let b = Buffer.create 64 in
  (match cmd with
  | Register_volume { rv_alloc; rv_vol; rv_label; rv_replicas } ->
    Printf.bprintf b "regv %d %d " rv_alloc rv_vol;
    buf_str b rv_label;
    Buffer.add_char b ' ';
    buf_replicas b rv_replicas
  | Set_replicas { sr_alloc; sr_vol; sr_replicas } ->
    Printf.bprintf b "setr %d %d " sr_alloc sr_vol;
    buf_replicas b sr_replicas
  | Set_graft { sg_path; sg_alloc; sg_vol } ->
    Printf.bprintf b "graf %d %d " sg_alloc sg_vol;
    buf_str b sg_path);
  Buffer.contents b

let cur_replicas c =
  Cursor.list c (fun c ->
      let rid = Cursor.int c in
      Cursor.expect c ' ';
      let h = Cursor.str c in
      (rid, h))

(* Two ints, each followed by a space: the (alloc, vol) every command
   and snapshot record starts with. *)
let cur_vref c =
  let alloc = Cursor.int c in
  Cursor.expect c ' ';
  let vol = Cursor.int c in
  Cursor.expect c ' ';
  (alloc, vol)

let decode_cmd s =
  Result.to_option
    (Cursor.parse s (fun c ->
         match Cursor.word c with
         | "regv" ->
           let rv_alloc, rv_vol = cur_vref c in
           let rv_label = Cursor.str c in
           Cursor.expect c ' ';
           let rv_replicas = cur_replicas c in
           Register_volume { rv_alloc; rv_vol; rv_label; rv_replicas }
         | "setr" ->
           let sr_alloc, sr_vol = cur_vref c in
           let sr_replicas = cur_replicas c in
           Set_replicas { sr_alloc; sr_vol; sr_replicas }
         | "graf" ->
           let sg_alloc, sg_vol = cur_vref c in
           let sg_path = Cursor.str c in
           Set_graft { sg_path; sg_alloc; sg_vol }
         | _ -> raise Cursor.Bad))

(* ------------------------------------------------------------------ *)
(* State                                                               *)

type vol_state = {
  vs_label : string;
  vs_replicas : (int * string) list;
  vs_cindex : int;  (* log index of the command that last touched this *)
}

type t = {
  cp_vols : (int * int, vol_state) Hashtbl.t;
  cp_grafts : (string, (int * int) * int) Hashtbl.t;
  mutable cp_applied : int;
  mutable cp_bad : int;  (* undecodable commands skipped *)
}

let create () =
  {
    cp_vols = Hashtbl.create 8;
    cp_grafts = Hashtbl.create 8;
    cp_applied = 0;
    cp_bad = 0;
  }

let apply t ~index cmd =
  (match decode_cmd cmd with
  | None -> t.cp_bad <- t.cp_bad + 1
  | Some (Register_volume { rv_alloc; rv_vol; rv_label; rv_replicas }) ->
    if not (Hashtbl.mem t.cp_vols (rv_alloc, rv_vol)) then
      Hashtbl.replace t.cp_vols (rv_alloc, rv_vol)
        {
          vs_label = rv_label;
          vs_replicas = List.sort compare rv_replicas;
          vs_cindex = index;
        }
  | Some (Set_replicas { sr_alloc; sr_vol; sr_replicas }) -> (
    match Hashtbl.find_opt t.cp_vols (sr_alloc, sr_vol) with
    | None -> ()
    | Some vs ->
      Hashtbl.replace t.cp_vols (sr_alloc, sr_vol)
        {
          vs with
          vs_replicas = List.sort compare sr_replicas;
          vs_cindex = index;
        })
  | Some (Set_graft { sg_path; sg_alloc; sg_vol }) ->
    Hashtbl.replace t.cp_grafts sg_path ((sg_alloc, sg_vol), index));
  t.cp_applied <- max t.cp_applied index

let applied_index t = t.cp_applied

let volume t ~alloc ~vol =
  Option.map
    (fun vs -> (vs.vs_replicas, vs.vs_cindex))
    (Hashtbl.find_opt t.cp_vols (alloc, vol))

let volumes t =
  Hashtbl.fold
    (fun key vs acc -> (key, vs.vs_label, vs.vs_replicas) :: acc)
    t.cp_vols []
  |> List.sort compare

let graft_target t path = Hashtbl.find_opt t.cp_grafts path

let grafts t =
  Hashtbl.fold (fun path (vref, _) acc -> (path, vref) :: acc) t.cp_grafts []
  |> List.sort compare

(* ------------------------------------------------------------------ *)
(* Snapshot: the whole registry in one string, same cursor format.     *)

let snapshot t =
  let b = Buffer.create 128 in
  Printf.bprintf b "cp1 %d %d " t.cp_applied t.cp_bad;
  let vols =
    Hashtbl.fold (fun key vs acc -> (key, vs) :: acc) t.cp_vols []
    |> List.sort compare
  in
  Printf.bprintf b "%d" (List.length vols);
  List.iter
    (fun ((alloc, vol), vs) ->
      Printf.bprintf b " %d %d %d " alloc vol vs.vs_cindex;
      buf_str b vs.vs_label;
      Buffer.add_char b ' ';
      buf_replicas b vs.vs_replicas)
    vols;
  let grafts =
    Hashtbl.fold (fun path tgt acc -> (path, tgt) :: acc) t.cp_grafts []
    |> List.sort compare
  in
  Printf.bprintf b " %d" (List.length grafts);
  List.iter
    (fun (path, ((alloc, vol), cindex)) ->
      Printf.bprintf b " %d %d %d " alloc vol cindex;
      buf_str b path)
    grafts;
  Buffer.contents b

let decode_snapshot c =
  if Cursor.word c <> "cp1" then raise Cursor.Bad;
  let applied = Cursor.int c in
  Cursor.expect c ' ';
  let bad = Cursor.int c in
  Cursor.expect c ' ';
  let vols =
    Cursor.list c (fun c ->
        let key = cur_vref c in
        let vs_cindex = Cursor.int c in
        Cursor.expect c ' ';
        let vs_label = Cursor.str c in
        Cursor.expect c ' ';
        let vs_replicas = cur_replicas c in
        (key, { vs_label; vs_replicas; vs_cindex }))
  in
  Cursor.expect c ' ';
  let grafts =
    Cursor.list c (fun c ->
        let key = cur_vref c in
        let cindex = Cursor.int c in
        Cursor.expect c ' ';
        let path = Cursor.str c in
        (path, (key, cindex)))
  in
  (applied, bad, vols, grafts)

let restore t s =
  let decoded =
    if String.equal s "" then Ok (0, 0, [], []) else Cursor.parse s decode_snapshot
  in
  Result.map
    (fun (applied, bad, vols, grafts) ->
      Hashtbl.reset t.cp_vols;
      Hashtbl.reset t.cp_grafts;
      t.cp_applied <- applied;
      t.cp_bad <- bad;
      List.iter (fun (key, vs) -> Hashtbl.replace t.cp_vols key vs) vols;
      List.iter (fun (path, tgt) -> Hashtbl.replace t.cp_grafts path tgt) grafts)
    decoded
