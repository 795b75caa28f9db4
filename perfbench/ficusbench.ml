(* The Ficus benchmark.

   Each workload replays a seeded file-system trace ({!Workload.trace})
   against an 8-host simulated cluster holding one 4-replica volume
   (hosts 0-3).  The benchmark links the libraries as they are and
   measures every layer from outside: it times each trace op at the
   logical root and each [Cluster.tick_daemons] call, and it reads the
   layers' public counters ([Sim_net], [Logical], [Physical], the UFS
   block caches and disks, the [Metrics] registry, [Cluster.profile]).

   One repetition is: set up a fresh cluster (timed as [setup_s]),
   for partition-heal split it and wait until the detector has seen the
   split, replay the trace in 2000-op batches with 50 simulated ticks after
   each batch, tick until every replica is identical (for
   partition-heal: heal first), then run the correctness gate outside
   every timed phase. *)

let get what = function
  | Ok v -> v
  | Error e -> failwith (Printf.sprintf "%s: %s" what (Errno.to_string e))

let now_ns () = Int64.to_float (Monotonic_clock.now ())
let ratio a b = if b = 0.0 then 0.0 else a /. b

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)

type spec = {
  name : string;
  trace : Workload.trace_config;  (** [t_seed] is replaced by the run's seed *)
  client : int -> int;  (** host index that runs user [u] *)
  selection : Logical.selection;
  journal_blocks : int;
  halves : int list list option;  (** partition held during the replay; [None] is fault-free *)
}

let nhosts = 8
let nreplicas = 4
let batch_ops = 2000
let batch_ticks = 50
let propagation_delay = 200
let reconcile_period = 250

(* The failure detector suspects a peer after 8 silent gossip periods
   and declares it dead after 16, not after the default 3 and 8.  With
   the defaults, 8 hosts falsely suspect live peers a few hundred times
   per run (anti-entropy with one random partner per period does not
   reach every peer within 3 periods), and under [Most_recent] Logical
   then skips a suspected replica holding the newest version and writes
   to a stale one: permanent single-writer conflicts on some nfs-remote
   seeds.  With these thresholds fault-free runs see no suspicion; the
   gate checks that no replica was skipped. *)
let gossip_config =
  { Gossip.default_config with Gossip.suspect_missed = 8; dead_missed = 16 }

(* Simulated time advances in calls no coarser than one gossip period.
   Datagrams are delivered once per call, so one 50-tick call leaves
   every peer silent for 12 periods: suspected (with the default
   thresholds, dead), and Logical steers writes away from it. *)
let step_ticks = gossip_config.Gossip.period

let zipf_local =
  {
    name = "zipf-local";
    trace = Workload.default_trace;
    client = (fun u -> u mod nreplicas);
    selection = Logical.Prefer_local;
    journal_blocks = 0;
    halves = None;
  }

let nfs_remote =
  {
    name = "nfs-remote";
    trace = { Workload.default_trace with t_users = 4; t_files = 16; t_payload = 512 };
    client = (fun u -> nreplicas + (u mod (nhosts - nreplicas)));
    selection = Logical.Most_recent;
    journal_blocks = 0;
    halves = None;
  }

let partition_heal =
  {
    name = "partition-heal";
    trace =
      {
        Workload.default_trace with
        t_mix = { Workload.read_w = 30; write_w = 50; rename_w = 12; mkdir_w = 8 };
      };
    client = (fun u -> u mod nreplicas);
    selection = Logical.Prefer_local;
    journal_blocks = 128;
    halves = Some [ [ 0; 1; 4; 5 ]; [ 2; 3; 6; 7 ] ];
  }

let workloads = [ zipf_local; nfs_remote; partition_heal ]
let find_workload name = List.find_opt (fun s -> s.name = name) workloads

(* ------------------------------------------------------------------ *)
(* Tracing: spans kept in memory, written out when the run ends        *)

type tick_span = {
  tk_start : float;  (** ns *)
  tk_end : float;
  tk_replay : bool;  (** inside the replay, as opposed to convergence *)
  tk_daemons : (string * int) list;  (** per-daemon self time, us, in run order *)
}

type tracer = {
  op_start : float array;  (** ns *)
  op_rpcs : int array;  (** foreground RPCs issued by the op *)
  op_words : float array;  (** minor words the op allocated *)
  mutable ticks : tick_span list;  (** newest first *)
}

let new_tracer ops =
  {
    op_start = Array.make ops 0.0;
    op_rpcs = Array.make ops 0;
    op_words = Array.make ops 0.0;
    ticks = [];
  }

(* ------------------------------------------------------------------ *)
(* A cluster under test                                                *)

type ctx = {
  spec : spec;
  tcfg : Workload.trace_config;
  cluster : Cluster.t;
  vref : Ids.volume_ref;
  roots : Vnode.t array;  (** per user *)
  mutable tick_ns : float;  (** wall time spent inside tick_daemons *)
  mutable recon : Reconcile.stats;
  mutable tracer : tracer option;
  mutable in_replay : bool;
  mutable check_ns : float;  (** wall time spent in untimed equality walks *)
}

(* The daemon phases of tick_daemons, in the order it runs them (the
   clusters here run no raft). *)
let daemons = [ "gossip"; "journal"; "prop"; "recon" ]

let profile_rows cluster =
  List.map
    (fun (r : Health.Profile.row) ->
      (r.Health.Profile.pr_daemon, (r.pr_activations, r.pr_work, r.pr_us)))
    (Health.Profile.rows (Cluster.profile cluster))

let profile_get rows d = Option.value (List.assoc_opt d rows) ~default:(0, 0, 0)

let tick ctx k =
  let before = if ctx.tracer = None then [] else profile_rows ctx.cluster in
  let t0 = now_ns () in
  let (_ : int), stats = Cluster.tick_daemons ctx.cluster k in
  let t1 = now_ns () in
  ctx.tick_ns <- ctx.tick_ns +. (t1 -. t0);
  ctx.recon <- Reconcile.add_stats ctx.recon stats;
  match ctx.tracer with
  | None -> ()
  | Some tr ->
    let after = profile_rows ctx.cluster in
    let self d =
      let _, _, a = profile_get after d and _, _, b = profile_get before d in
      (d, a - b)
    in
    tr.ticks <-
      { tk_start = t0; tk_end = t1; tk_replay = ctx.in_replay;
        tk_daemons = List.map self daemons }
      :: tr.ticks

let advance ctx ticks =
  let left = ref ticks in
  while !left > 0 do
    let k = min step_ticks !left in
    tick ctx k;
    left := !left - k
  done

let sum_over xs f = List.fold_left (fun acc x -> acc + f x) 0 xs

(* The replay starts under a partition the detector has already seen:
   every host judges the other half dead.  Otherwise the first batch,
   2000 ops at one simulated instant, runs before any detector can notice,
   each op failing RPCs to the other half, and whether the second batch
   fails too depends on when the last second-hand heartbeat reached each
   host: on the seed, not on the code (partition-heal seeds 703 and 706:
   21,580 and 14,024 failed RPCs in the replay). *)
let partition_ticks = 2 * gossip_config.Gossip.period * gossip_config.Gossip.dead_missed

let partition ctx halves =
  Cluster.partition ctx.cluster halves;
  let metrics = (Cluster.obs ctx.cluster).Obs.metrics in
  let dead0 = Metrics.counter metrics "gossip.dead_events" in
  advance ctx partition_ticks;
  let verdicts = sum_over halves (fun h -> List.length h * (nhosts - List.length h)) in
  if Metrics.counter metrics "gossip.dead_events" - dead0 <> verdicts then
    failwith "partition: the detector did not declare the other half dead"

let trace_config spec ~seed = { spec.trace with Workload.t_seed = seed }

(* Every span the run can mint stays resident: prop.lag is observed only
   while an update's span is retained, so an eviction would silently drop
   long-lagging updates from the lag percentiles.  The gate checks
   [spans.evicted = 0]. *)
let span_retention tcfg ~ops =
  (4 * ((tcfg.Workload.t_users * (tcfg.Workload.t_files + 1)) + ops)) + 4096

let setup spec ~seed ~ops =
  let tcfg = trace_config spec ~seed in
  let cluster =
    Cluster.create ~seed ~nhosts ~block_size:512
      ~disk_blocks_for:(fun i -> if i < nreplicas then 16384 else 1024)
      ~ninodes_for:(fun i -> if i < nreplicas then 12288 else 64)
      ~propagation_delay ~reconcile_period ~selection:spec.selection
      ~journal_blocks:spec.journal_blocks ~gossip:gossip_config ()
  in
  Span.set_retention (Cluster.obs cluster).Obs.spans (span_retention tcfg ~ops);
  let vref =
    get "create_volume" (Cluster.create_volume cluster ~on:(List.init nreplicas Fun.id))
  in
  let ctx =
    {
      spec;
      tcfg;
      cluster;
      vref;
      roots = [||];
      tick_ns = 0.0;
      recon = Reconcile.empty_stats;
      tracer = None;
      in_replay = false;
      check_ns = 0.0;
    }
  in
  let settle = ref 0 in
  while (not (Cluster.membership_converged cluster)) && !settle < 256 do
    tick ctx step_ticks;
    incr settle
  done;
  if not (Cluster.membership_converged cluster) then
    failwith "setup: gossip membership never converged";
  get "setup_trace" (Workload.setup_trace (get "root" (Cluster.logical_root cluster 0 vref)) tcfg);
  let (_ : int) = Cluster.run_propagation cluster in
  let (_ : int) = get "converge" (Cluster.converge cluster vref ~max_rounds:100 ()) in
  let host_roots =
    Array.init nhosts (fun h -> lazy (get "logical_root" (Cluster.logical_root cluster h vref)))
  in
  let roots = Array.init tcfg.Workload.t_users (fun u -> Lazy.force host_roots.(spec.client u)) in
  { ctx with roots }

(* ------------------------------------------------------------------ *)
(* Counters read from outside                                          *)

let hosts ctx = List.init nhosts (Cluster.host ctx.cluster)

let physicals ctx =
  List.filter_map (fun h -> Cluster.replica h ctx.vref) (hosts ctx)

let registry_keys =
  [ "prop.bytes"; "recon.bytes"; "prop.pull.file"; "prop.uptodate_header";
    "prop.skipped_dominated"; "prop.nvc_deduped"; "recon.passes"; "recon.rpcs";
    "gossip.suspect_events"; "gossip.dead_events"; "spans.evicted";
    "nfs.client.readdir_hits" ]

let logical_keys = [ "logical.fallback"; "logical.retry_pass"; "logical.skipped_doubtful" ]

let phys_keys = [ "phys.update"; "phys.install"; "phys.ctl.getdirvvs"; "phys.conflict.file" ]

(* Every raw counter the metrics are built from, as one flat list; a
   phase's cost is the difference of two reads. *)
let read_counters ctx =
  let net = Sim_net.counters (Cluster.net ctx.cluster) in
  let m = (Cluster.obs ctx.cluster).Obs.metrics in
  let hs = hosts ctx and ps = physicals ctx in
  let prof = profile_rows ctx.cluster in
  let gc = Gc.quick_stat () in
  List.map (fun k -> (k, float_of_int (Counters.get net k))) [ "net.rpc.calls"; "net.datagrams.sent" ]
  @ List.map (fun k -> (k, float_of_int (Metrics.counter m k))) registry_keys
  @ List.map
      (fun k -> (k, float_of_int (sum_over hs (fun h -> Counters.get (Logical.counters (Cluster.logical h)) k))))
      logical_keys
  @ List.map (fun k -> (k, float_of_int (sum_over ps (fun p -> Counters.get (Physical.counters p) k)))) phys_keys
  @ [
      ("cache.hits", float_of_int (sum_over hs (fun h -> Block_cache.hits (Ufs.cache (Cluster.ufs h)))));
      ("cache.misses", float_of_int (sum_over hs (fun h -> Block_cache.misses (Ufs.cache (Cluster.ufs h)))));
      ("disk.io", float_of_int (sum_over hs (fun h -> Disk.io_total (Cluster.disk h))));
      ("gc.minor_words", gc.Gc.minor_words);
      ("gc.direct_major_words", gc.Gc.major_words -. gc.Gc.promoted_words);
      ("gc.major_collections", float_of_int gc.Gc.major_collections);
    ]
  @ List.concat_map
      (fun d ->
        let acts, work, us = profile_get prof d in
        [ ("daemon." ^ d ^ ".activations", float_of_int acts);
          ("daemon." ^ d ^ ".work", float_of_int work);
          ("daemon." ^ d ^ ".us", float_of_int us) ])
      daemons

let diff_counters c1 c0 = List.map2 (fun (k, a) (_, b) -> (k, a -. b)) c1 c0

(* ------------------------------------------------------------------ *)
(* Replica state                                                       *)

exception Differ

(* Are all replicas identical: the same live names, file ids and kinds in
   every directory, and the same version vector and stored bit on every
   entry?  The replicas are walked in lockstep, so a difference stops the
   walk where it is found. *)
let replicas_equal ctx =
  let t0 = now_ns () in
  let ps = physicals ctx in
  let same f =
    match List.map f ps with
    | x :: rest -> if List.for_all (( = ) x) rest then x else raise Differ
    | [] -> raise Differ
  in
  let version p path =
    Result.map
      (fun vi -> (Version_vector.to_string vi.Physical.vi_vv, vi.Physical.vi_stored))
      (Physical.get_version p path)
  in
  let rec walk path =
    let live =
      same (fun p ->
          Result.map
            (fun fdir ->
              List.map (fun (name, (e : Fdir.entry)) -> (name, e.Fdir.fid, e.Fdir.kind)) (Fdir.live fdir))
            (Physical.fetch_dir p path))
    in
    match live with
    | Error _ -> raise Differ
    | Ok entries ->
      List.iter
        (fun (_, fid, kind) ->
          let child = path @ [ fid ] in
          ignore (same (fun p -> version p child));
          match kind with
          | Aux_attrs.Fdir | Aux_attrs.Fgraft -> walk child
          | Aux_attrs.Freg -> ())
        entries
  in
  let equal =
    try
      ignore (same (fun p -> version p []));
      walk [];
      true
    with Differ -> false
  in
  ctx.check_ns <- ctx.check_ns +. (now_ns () -. t0);
  equal

(* What the trace must leave behind, computed from the trace alone:
   each user's directory names (renames toggle f<r> <-> g<r>, mkdir
   targets cycle through m0..m<t_mkdirs-1>) and each file's contents. *)
let expected_state tcfg ~ops =
  let open Workload in
  let renamed = Array.make_matrix tcfg.t_users tcfg.t_files false in
  let written = Array.make_matrix tcfg.t_users tcfg.t_files false in
  let mkdirs = Array.make tcfg.t_users 0 in
  Seq.iter
    (fun { op_user = u; op_kind; op_rank = r } ->
      match op_kind with
      | Read -> ()
      | Write -> written.(u).(r) <- true
      | Rename -> renamed.(u).(r) <- not renamed.(u).(r)
      | Mkdir -> mkdirs.(u) <- mkdirs.(u) + 1)
    (Seq.take ops (trace tcfg));
  let payload u r =
    String.make (max 1 tcfg.t_payload) (Char.chr (Char.code 'a' + ((u + r) mod 26)))
  in
  Array.init tcfg.t_users (fun u ->
      let files =
        List.init tcfg.t_files (fun r ->
            ( Printf.sprintf "%c%d" (if renamed.(u).(r) then 'g' else 'f') r,
              Some (if written.(u).(r) then payload u r else "") ))
      in
      let dirs =
        List.init (min mkdirs.(u) tcfg.t_mkdirs) (fun k -> (Printf.sprintf "m%d" k, None))
      in
      List.sort compare (files @ dirs))

(* Compare one replica against the trace's expected end state; returns
   the first mismatch found. *)
let check_replica expected phys =
  let ( let* ) = Result.bind in
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let rid = Physical.host phys in
  let fetch_dir p = Result.map_error Errno.to_string (Physical.fetch_dir phys p) in
  let* root = fetch_dir [] in
  let users = List.map fst (Fdir.live root) in
  let want_users =
    List.sort compare (List.init (Array.length expected) (Printf.sprintf "u%d"))
  in
  if List.sort compare users <> want_users then err "%s: root holds %s" rid (String.concat "," users)
  else
    let check_user u =
      let dir = Option.get (Fdir.find_live root (Printf.sprintf "u%d" u)) in
      let* fdir = fetch_dir [ dir.Fdir.fid ] in
      let live = List.sort compare (Fdir.live fdir) in
      let names = List.map fst live in
      if names <> List.map fst expected.(u) then
        err "%s: u%d holds [%s]" rid u (String.concat " " names)
      else
        List.fold_left2
          (fun acc (name, (e : Fdir.entry)) (_, want) ->
            let* () = acc in
            match (e.Fdir.kind, want) with
            | Aux_attrs.Freg, Some data ->
              (match Physical.fetch_file phys [ dir.Fdir.fid; e.Fdir.fid ] with
               | Ok (_, got) when got = data -> Ok ()
               | Ok (_, got) -> err "%s: u%d/%s holds %d bytes, not the trace's %d" rid u name (String.length got) (String.length data)
               | Error e -> err "%s: u%d/%s: %s" rid u name (Errno.to_string e))
            | (Aux_attrs.Fdir, None) -> Ok ()
            | _ -> err "%s: u%d/%s has the wrong kind" rid u name)
          (Ok ()) live expected.(u)
    in
    List.fold_left (fun acc u -> let* () = acc in check_user u) (Ok ()) (List.init (Array.length expected) Fun.id)

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort compare a;
  a

(* Nearest-rank percentile. *)
let percentile xs p =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.0
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) - 1)))

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* ------------------------------------------------------------------ *)
(* Trace file: Chrome trace-event JSON                                 *)

let kind_name = function
  | Workload.Read -> "read"
  | Workload.Write -> "write"
  | Workload.Rename -> "rename"
  | Workload.Mkdir -> "mkdir"

let tick_spans ?(replay_only = false) tr =
  List.filter (fun s -> s.tk_replay || not replay_only) tr.ticks

(* Tick wall time not covered by any daemon phase: the tick loop's own
   overhead (clock advance, datagram pump, peer-list sync). *)
let tick_self_us tr =
  List.fold_left
    (fun acc s ->
      let daemons = List.fold_left (fun a (_, us) -> a + us) 0 s.tk_daemons in
      acc +. ((s.tk_end -. s.tk_start) /. 1e3) -. float_of_int daemons)
    0.0 (tick_spans tr)

(* Share of the replay's wall time the op and tick spans account for. *)
let coverage tr ~op_ns ~replay_s =
  let ops = Array.fold_left ( +. ) 0.0 op_ns in
  let ticks =
    List.fold_left (fun acc s -> acc +. (s.tk_end -. s.tk_start)) 0.0 (tick_spans ~replay_only:true tr)
  in
  ratio (ops +. ticks) (replay_s *. 1e9)

let write_trace path tr ~op_ns ~kinds =
  let oc = open_out path in
  let t0 = if Array.length op_ns > 0 then tr.op_start.(0) else 0.0 in
  let us ns = (ns -. t0) /. 1e3 in
  let first = ref true in
  let event ~name ~cat ~tid ~ts ~dur ~id ~parent args =
    if not !first then output_string oc ",\n";
    first := false;
    Printf.fprintf oc
      {|{"name":"%s","cat":"%s","ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"span":%d,"parent":%d%s}}|}
      name cat tid ts dur id parent args
  in
  output_string oc "{\"traceEvents\":[\n";
  let id = ref 0 in
  Array.iteri
    (fun i kind ->
      incr id;
      event ~name:(kind_name kind) ~cat:"op" ~tid:1
        ~ts:(us (tr.op_start.(i)))
        ~dur:(op_ns.(i) /. 1e3)
        ~id:!id ~parent:0
        (Printf.sprintf {|,"rpcs":%d,"minor_words":%.0f|} tr.op_rpcs.(i) (tr.op_words.(i))))
    kinds;
  List.iter
    (fun s ->
      incr id;
      let parent = !id in
      event ~name:"tick_daemons" ~cat:(if s.tk_replay then "tick" else "settle") ~tid:2
        ~ts:(us s.tk_start) ~dur:((s.tk_end -. s.tk_start) /. 1e3) ~id:parent ~parent:0 "";
      (* Phases run back to back in tick order; the profile gives each
         one's self time, so children are laid out from the tick's start. *)
      let at = ref (us s.tk_start) in
      List.iter
        (fun (d, self) ->
          if self > 0 then begin
            incr id;
            event ~name:d ~cat:"daemon" ~tid:2 ~ts:!at ~dur:(float_of_int self) ~id:!id ~parent "";
            at := !at +. float_of_int self
          end)
        s.tk_daemons)
    (List.rev tr.ticks);
  output_string oc "\n]}\n";
  close_out oc

(* ------------------------------------------------------------------ *)
(* One repetition                                                      *)

(* A repetition is summarised where it ran: the per-op samples and spans
   stay in its process, and the process that collects the repetitions
   keeps only these figures. *)

type trace_stats = {
  fg_rpcs : int;  (** RPCs the trace ops issued themselves *)
  op_words : float;  (** minor words the trace ops allocated *)
  tick_self_us : float;
  coverage : float;
}

type rep = {
  traced : bool;
  ops : int;
  setup_s : float;
  replay_s : float;
  check_s : float;  (** untimed equality walks, settle and gate *)
  heal_s : float;  (** wall time in tick_daemons over the settle window *)
  converge_ticks : int;  (** first identical tick after the last op (or heal); traced only *)
  op_us_p50 : float;
  op_us_p99 : float;
  kind_us_p50 : (Workload.op_kind * float) list;
  counts : (string * float) list;
      (** every counter delta over the replay ([replay.*]) and over the
          replay plus convergence ([run.*]), and the lag percentiles *)
  heap_words_peak : float;
  errors : int;
  writes : int;
  failures : string list;  (** correctness gate; empty when the run is correct *)
  trace_stats : trace_stats option;  (** traced repetitions only *)
}

let kinds_of tcfg ~ops =
  Array.of_seq (Seq.map (fun o -> o.Workload.op_kind) (Seq.take ops (Workload.trace tcfg)))

(* The replay: every trace op timed at the logical root, 2000-op batches
   followed by 50 simulated ticks.  Returns the replay stats, the wall
   time, and the per-op times. *)
let replay ctx ~ops =
  let net = Sim_net.counters (Cluster.net ctx.cluster) in
  let op_ns = Array.make ops 0.0 in
  ctx.in_replay <- true;
  let t_start = now_ns () in
  let last = ref t_start in
  let last_rpcs = ref (Counters.get net "net.rpc.calls") in
  let last_words = ref (Gc.minor_words ()) in
  let on_batch n =
    let t = now_ns () in
    op_ns.(n - 1) <- (t -. !last);
    (match ctx.tracer with
     | None -> ()
     | Some tr ->
       let rpcs = Counters.get net "net.rpc.calls" and words = Gc.minor_words () in
       tr.op_start.(n - 1) <- !last;
       tr.op_rpcs.(n - 1) <- rpcs - !last_rpcs;
       tr.op_words.(n - 1) <- (words -. !last_words));
    (* The last batch's ticks belong to convergence: it is timed from
       the last trace op. *)
    if n mod batch_ops = 0 && n < ops then advance ctx batch_ticks;
    (match ctx.tracer with
     | None -> ()
     | Some _ ->
       last_rpcs := Counters.get net "net.rpc.calls";
       last_words := Gc.minor_words ());
    last := now_ns ()
  in
  let stats =
    Workload.replay ~root_for:(fun u -> ctx.roots.(u)) ~batch:1 ~on_batch ctx.tcfg ~ops
  in
  let replay_s = (now_ns () -. t_start) /. 1e9 in
  ctx.in_replay <- false;
  (stats, replay_s, op_ns)

(* Replica state changes only through these events, so the equality walk
   is repeated only after one of them (or after [recheck_ticks] without
   one, as a backstop). *)
let state_events ctx =
  sum_over (physicals ctx) (fun p ->
      let c = Counters.get (Physical.counters p) in
      c "phys.update" + c "phys.install" + c "phys.merge_dir")

let recheck_ticks = 64

(* The settle window after the last trace op (partition-heal: after the
   heal) spans two reconcile periods.  Convergence needs one or two
   reconcile passes depending on the seed; a fixed window keeps the time
   spent in it comparable across seeds.  The window is extended while
   replicas still differ. *)
let settle_ticks = 2 * reconcile_period

(* A run whose replicas still differ this many ticks after the last op
   (or the heal) fails the gate. *)
let max_settle_ticks = 20_000

(* Tick through the settle window and on until every replica is
   identical.  With [~find_converge] the replicas are also compared after
   every step that changed one, to find the first identical tick; the
   comparisons are never timed.  Returns (converged, wall s in
   tick_daemons, first identical tick when searched for, else -1). *)
let settle ~find_converge ctx =
  Option.iter (fun _ -> Cluster.heal ctx.cluster) ctx.spec.halves;
  let clock = Cluster.clock ctx.cluster in
  let t0 = Clock.now clock and ns0 = ctx.tick_ns in
  let converged_at = ref None in
  let rec loop ~checked ~events =
    let now = Clock.now clock and ev = state_events ctx in
    let elapsed = now - t0 in
    let looking = (find_converge && !converged_at = None) || elapsed >= settle_ticks in
    let due = looking && (ev <> events || now - checked >= recheck_ticks) in
    if due && !converged_at = None && replicas_equal ctx then converged_at := Some elapsed;
    if elapsed >= settle_ticks && !converged_at <> None then true
    else if elapsed >= max_settle_ticks then false
    else begin
      tick ctx step_ticks;
      if due then loop ~checked:now ~events:ev else loop ~checked ~events
    end
  in
  let ok = loop ~checked:t0 ~events:(-1) in
  let first = match !converged_at with Some e when find_converge -> e | _ -> -1 in
  (ok, (ctx.tick_ns -. ns0) /. 1e9, first)

let count counts k = Option.value (List.assoc_opt k counts) ~default:0.0

(* The correctness gate, run after every timed phase. *)
let gate ctx ~ops ~converged ~errors counts =
  let fail = ref [] in
  let must cond msg = if not cond then fail := msg :: !fail in
  must converged "replicas never became identical";
  if converged then must (replicas_equal ctx) "replicas differ";
  must (errors = 0) (Printf.sprintf "%d trace ops failed" errors);
  must (count counts "run.spans.evicted" = 0.0)
    "spans were evicted: prop.lag would miss long-lagging updates";
  (* On a fault-free network no replica is ever doubted or passed over. *)
  if ctx.spec.halves = None then
    List.iter
      (fun k ->
        let v = count counts ("run." ^ k) in
        must (v = 0.0) (Printf.sprintf "%s = %.0f on a fault-free workload" k v))
      ([ "phys.conflict.file"; "gossip.dead_events" ] @ logical_keys);
  let expected = expected_state ctx.tcfg ~ops in
  List.iter
    (fun p -> match check_replica expected p with Ok () -> () | Error e -> must false e)
    (physicals ctx);
  List.rev !fail

let kind_us_p50 ~op_ns ~kinds kind =
  let xs = ref [] in
  Array.iteri (fun i k -> if k = kind then xs := op_ns.(i) :: !xs) kinds;
  percentile (Array.of_list !xs) 50.0 /. 1e3

(* One repetition on a fresh cluster.  A traced one writes its spans to
   [trace_out] when given. *)
let run_rep ?(traced = false) ?trace_out spec ~seed ~ops =
  (* The heap peak is counted from the heap this repetition starts with,
     emptied of garbage, so what the process held before (in a forked
     repetition: its parent's heap) does not count. *)
  Gc.full_major ();
  let heap_words0 = (Gc.quick_stat ()).Gc.heap_words in
  let t0 = now_ns () in
  let ctx = setup spec ~seed ~ops in
  let setup_s = (now_ns () -. t0) /. 1e9 in
  let kinds = kinds_of ctx.tcfg ~ops in
  Option.iter (partition ctx) spec.halves;
  if traced then ctx.tracer <- Some (new_tracer ops);
  let metrics = (Cluster.obs ctx.cluster).Obs.metrics in
  Metrics.reset metrics;
  ctx.recon <- Reconcile.empty_stats;
  let c0 = read_counters ctx in
  let stats, replay_s, op_ns = replay ctx ~ops in
  (* The peak heap of set-up plus replay. *)
  let heap_words_peak = (Gc.quick_stat ()).Gc.top_heap_words - heap_words0 in
  let c1 = read_counters ctx in
  let converged, heal_s, converge_ticks = settle ~find_converge:traced ctx in
  let c2 = read_counters ctx in
  let lag p = float_of_int (Option.value (Metrics.percentile metrics "prop.lag" p) ~default:0) in
  let counts =
    List.map (fun (k, v) -> ("replay." ^ k, v)) (diff_counters c1 c0)
    @ List.map (fun (k, v) -> ("run." ^ k, v)) (diff_counters c2 c0)
    @ [ ("lag.p50", lag 50.0); ("lag.p99", lag 99.0);
        ("lag.mean", ratio (float_of_int (Metrics.hist_sum metrics "prop.lag"))
                       (float_of_int (Metrics.hist_count metrics "prop.lag")));
        ("recon.visited", float_of_int (ctx.recon.Reconcile.dirs_merged + ctx.recon.Reconcile.subtrees_pruned));
        ("recon.pruned", float_of_int ctx.recon.Reconcile.subtrees_pruned) ]
  in
  let failures =
    gate ctx ~ops ~converged ~errors:stats.Workload.tr_errors counts
  in
  let trace_stats =
    Option.map
      (fun tr ->
        Option.iter (fun path -> write_trace path tr ~op_ns ~kinds) trace_out;
        {
          fg_rpcs = Array.fold_left ( + ) 0 tr.op_rpcs;
          op_words = Array.fold_left ( +. ) 0.0 tr.op_words;
          tick_self_us = tick_self_us tr;
          coverage = coverage tr ~op_ns ~replay_s;
        })
      ctx.tracer
  in
  {
    traced;
    ops;
    setup_s;
    replay_s;
    heal_s;
    check_s = ctx.check_ns /. 1e9;
    converge_ticks;
    op_us_p50 = percentile op_ns 50.0 /. 1e3;
    op_us_p99 = percentile op_ns 99.0 /. 1e3;
    kind_us_p50 =
      List.map (fun k -> (k, kind_us_p50 ~op_ns ~kinds k)) [ Workload.Read; Write; Rename; Mkdir ];
    counts;
    heap_words_peak = float_of_int heap_words_peak;
    errors = stats.Workload.tr_errors;
    writes = stats.Workload.tr_writes;
    failures;
    trace_stats;
  }

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)

type metric = { m_name : string; m_unit : string; m_value : float }

let m m_name m_unit m_value = { m_name; m_unit; m_value }
let med f reps = median (Array.of_list (List.map f reps))
let per_op r v = ratio v (float_of_int r.ops)
let word_bytes = float_of_int (Sys.word_size / 8)

(* Per-op allocation over the replay: minor words plus words allocated
   directly in the major heap. *)
let alloc_words r =
  per_op r (count r.counts "replay.gc.minor_words" +. count r.counts "replay.gc.direct_major_words")

(* Untraced repetitions give the end-to-end metrics.  Wall times are
   medians over repetitions; counts come from the first repetition
   (every repetition of one seed repeats them exactly). *)
let end_to_end reps =
  let r0 = List.hd reps in
  let c k = count r0.counts k in
  [
    m "setup_s" "s" (med (fun r -> r.setup_s) reps);
    m "ops_per_s" "1/s" (med (fun r -> float_of_int r.ops /. r.replay_s) reps);
    m "op_us_p50" "us" (med (fun r -> r.op_us_p50) reps);
    m "op_us_p99" "us" (med (fun r -> r.op_us_p99) reps);
    m "heal_s" "s" (med (fun r -> r.heal_s) reps);
    m "rpcs_per_op" "count" (per_op r0 (c "run.net.rpc.calls"));
    m "repl_bytes_per_op" "B" (per_op r0 (c "run.prop.bytes" +. c "run.recon.bytes"));
    m "alloc_words_per_op" "words" (med alloc_words reps);
    m "heap_mb_peak" "MB" (med (fun r -> r.heap_words_peak *. word_bytes /. 1048576.0) reps);
  ]

let trace_stats r = Option.get r.trace_stats

(* Traced repetitions give the per-layer metrics; untraced ones from the
   same run give the tracing overhead. *)
let per_layer ~traced ~untraced =
  let r0 = List.hd traced in
  let c k = count r0.counts k in
  let writes = float_of_int r0.writes in
  let kinds = [ Workload.Read; Write; Rename; Mkdir ] in
  List.map
    (fun k -> m ("logical." ^ kind_name k ^ ".us_p50") "us" (med (fun r -> List.assoc k r.kind_us_p50) traced))
    kinds
  @ [ m "logical.words_per_op" "words" (med (fun r -> per_op r (trace_stats r).op_words) traced) ]
  @ List.map (fun k -> m k "count" (c ("run." ^ k))) logical_keys
  @ [
      m "net.rpc_per_op" "count" (per_op r0 (float_of_int (trace_stats r0).fg_rpcs));
      m "net.datagrams_per_op" "count" (per_op r0 (c "replay.net.datagrams.sent"));
      m "nfs.client.readdir_hits_per_op" "count" (per_op r0 (c "replay.nfs.client.readdir_hits"));
      m "phys.update_per_op" "count" (per_op r0 (c "replay.phys.update"));
      m "phys.install_per_write" "count" (ratio (c "run.phys.install") writes);
      m "phys.getdirvvs_per_pass" "count" (ratio (c "run.phys.ctl.getdirvvs") (c "run.recon.passes"));
      m "block_cache.hit_ratio" "ratio"
        (ratio (c "replay.cache.hits") (c "replay.cache.hits" +. c "replay.cache.misses"));
      m "disk.io_per_op" "count" (per_op r0 (c "replay.disk.io"));
    ]
  @ List.concat_map
      (fun d ->
        let k s = "run.daemon." ^ d ^ "." ^ s in
        [
          m ("daemon." ^ d ^ ".ms_per_kop") "ms/kop" (med (fun r -> per_op r (count r.counts (k "us"))) traced);
          m ("daemon." ^ d ^ ".activations") "count" (c (k "activations"));
          m ("daemon." ^ d ^ ".work") "count" (c (k "work"));
        ])
      daemons
  @ [
      m "converge_ticks" "ticks" (float_of_int r0.converge_ticks);
      m "lag_ticks_p50" "ticks" (c "lag.p50");
      m "lag_ticks_mean" "ticks" (c "lag.mean");
      m "lag_ticks_p99" "ticks" (c "lag.p99");
      m "daemon.tick_self.ms_per_kop" "ms/kop" (med (fun r -> per_op r (trace_stats r).tick_self_us) traced);
      m "recon.ms_per_pass" "ms"
        (med (fun r -> ratio (count r.counts "run.daemon.recon.us" /. 1e3) (count r.counts "run.recon.passes")) traced);
      m "recon.rpcs_per_pass" "count" (ratio (c "run.recon.rpcs") (c "run.recon.passes"));
      m "recon.prune_ratio" "ratio" (ratio (c "recon.pruned") (c "recon.visited"));
      m "prop.pulls_per_write" "count" (ratio (c "run.prop.pull.file") writes);
      (* File pulls that carried data, over all file pulls that reached
         the origin; an install that came back Up_to_date or Conflict
         still counts as data-carrying (installs per path are not
         exposed). *)
      m "prop.useful_ratio" "ratio"
        (ratio (c "run.prop.pull.file") (c "run.prop.pull.file" +. c "run.prop.uptodate_header"));
      m "prop.skipped_dominated" "count" (c "run.prop.skipped_dominated");
      m "prop.nvc_deduped" "count" (c "run.prop.nvc_deduped");
      m "gossip.suspect_events" "count" (c "run.gossip.suspect_events");
      m "gossip.dead_events" "count" (c "run.gossip.dead_events");
      m "gc.minor_words_per_op" "words" (med (fun r -> per_op r (count r.counts "replay.gc.minor_words")) traced);
      m "gc.direct_major_words_per_op" "words"
        (med (fun r -> per_op r (count r.counts "replay.gc.direct_major_words")) traced);
      m "gc.major_collections" "count" (med (fun r -> count r.counts "replay.gc.major_collections") traced);
      m "spans.evicted" "count" (c "run.spans.evicted");
      m "op_fail_ratio" "ratio" (per_op r0 (float_of_int r0.errors));
      m "trace.overhead_ratio" "ratio"
        (ratio (med (fun r -> r.replay_s) traced) (med (fun r -> r.replay_s) untraced) -. 1.0);
      m "trace.coverage" "ratio" (med (fun r -> (trace_stats r).coverage) traced);
    ]

(* Counts that must repeat exactly across repetitions of one seed:
   everything but wall times, the allocator's figures and, after the
   replay, the block caches and disks (a traced repetition's equality
   walks read through them). *)
let deterministic_counts r =
  let varies k =
    String.ends_with ~suffix:".us" k
    || List.exists (fun prefix -> String.starts_with ~prefix k)
         [ "replay.gc."; "run.gc."; "run.cache."; "run.disk." ]
  in
  ("errors", float_of_int r.errors) :: List.filter (fun (k, _) -> not (varies k)) r.counts

(* Names of the deterministic counts on which [r] differs from [r0]. *)
let count_drift r0 r =
  List.filter_map
    (fun ((k, a), (_, b)) -> if a = b then None else Some k)
    (List.combine (deterministic_counts r0) (deterministic_counts r))

let default_ops = 10_000
let min_untraced_reps = 3

(* Each repetition runs in a child process of its own.  Some state in
   the libraries is process-global (the control-request serial in
   [Remote] lengthens request names, and so wire bytes, as a process
   ages); a fresh process makes every repetition of one seed repeat its
   counts exactly.  The child inherits this process's heap, which holds
   only the summaries of earlier repetitions. *)
let run_rep_isolated ?traced ?trace_out spec ~seed ~ops =
  flush stdout;
  flush stderr;
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close rd;
    let oc = Unix.out_channel_of_descr wr in
    let result =
      try Ok (run_rep ?traced ?trace_out spec ~seed ~ops) with e -> Error (Printexc.to_string e)
    in
    Marshal.to_channel oc (result : (rep, string) result) [];
    close_out oc;
    Unix._exit 0
  | pid ->
    Unix.close wr;
    let ic = Unix.in_channel_of_descr rd in
    let result =
      try (Marshal.from_channel ic : (rep, string) result)
      with End_of_file | Failure _ -> Error "repetition process died"
    in
    close_in ic;
    let (_ : int * Unix.process_status) = Unix.waitpid [] pid in
    result
