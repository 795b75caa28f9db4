(** The observability bundle: one metrics registry + one span table,
    plus the shared [Logs] reporter tagging host and simulated time. *)

type t = { metrics : Metrics.t; spans : Span.t }

val create : unit -> t

val default : t
(** Fallback bundle for components built without an explicit [?obs].
    Clusters create their own so simulations stay isolated. *)

val host_tag : string Logs.Tag.def
(** Attach with [Logs.Tag.add host_tag name Logs.Tag.empty] so the
    reporter prefixes the line with the emitting replica. *)

val reporter : ?out:Format.formatter -> now:(unit -> int) -> unit -> Logs.reporter
(** Formats every line as [[tick] LEVEL src host: msg] using the
    simulated clock. *)

val install_reporter :
  ?out:Format.formatter -> ?level:Logs.level -> now:(unit -> int) -> unit -> unit
