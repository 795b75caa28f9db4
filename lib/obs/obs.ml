(* The observability bundle a cluster (or a standalone stack) carries:
   one metrics registry plus one span table, and the shared Logs
   reporter that tags every line with host name and simulated time. *)

type t = { metrics : Metrics.t; spans : Span.t }

let create () =
  let metrics = Metrics.create () in
  let spans = Span.create () in
  (* Retention evictions surface in the registry as they happen, so a
     capped soak's [.#ficus#stats] snapshot shows the loss rate live. *)
  Span.set_evict_notify spans (fun () -> Metrics.incr metrics "spans.evicted");
  { metrics; spans }

(* A process-wide default, used by components constructed without an
   explicit [?obs] (unit tests building a bare Physical.t, say).  Each
   Cluster.create makes its own bundle, so simulations never bleed
   metrics into each other. *)
let default = create ()

(* ------------------------------------------------------------------ *)
(* Shared Logs reporter                                                *)

(* Log lines are tagged with the emitting host so a multi-host
   simulation interleaved in one process stays readable. *)
let host_tag : string Logs.Tag.def =
  Logs.Tag.def "host" ~doc:"emitting replica host name" Format.pp_print_string

let reporter ?(out = Format.err_formatter) ~now () =
  let report src level ~over k msgf =
    let k _ =
      over ();
      k ()
    in
    msgf @@ fun ?header ?tags fmt ->
    ignore header;
    let host =
      match Option.bind tags (Logs.Tag.find host_tag) with
      | Some h -> h
      | None -> "-"
    in
    Format.kfprintf k out
      ("[%6d] %a %s %s: " ^^ fmt ^^ "@.")
      (now ()) Logs.pp_level level (Logs.Src.name src) host
  in
  { Logs.report }

let install_reporter ?out ?(level = Logs.Info) ~now () =
  Logs.set_reporter (reporter ?out ~now ());
  Logs.set_level ~all:true (Some level)
