(** Named event counters.

    The simulation charges costs (disk I/Os, layer crossings, RPCs,
    propagated bytes) to named counters so experiments can report them.
    Counters live in explicit counter sets, not global state, so parallel
    experiments never interfere.

    A set made by {!child} forwards every addition to its parent, so a
    component's own set and the registry it reports into are one store:
    each event is counted once and read from either. *)

type t

val create : unit -> t
(** A root set. *)

val child : t -> t
(** [child parent] is an empty set whose every addition is also added to
    [parent]'s counter of the same name.  Resetting either leaves the
    other alone. *)

val incr : t -> string -> unit
val add : t -> string -> int -> unit
val get : t -> string -> int
(** Zero for a counter never incremented. *)

val reset : t -> unit
(** Zero every counter of this set, in place: children stay linked. *)

val snapshot : t -> (string * int) list
(** Non-zero counters, sorted by name. *)
