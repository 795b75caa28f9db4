(** A total reader for the length-prefixed text encodings the Raft hard
    state and the control-plane registry share: decimal ints, [len:bytes]
    strings, single-character separators and counted lists.  Readers raise
    {!Bad} on malformed input; {!parse} turns that into [Error], so a
    decoder built from them never raises. *)

type t

exception Bad

val parse : string -> (t -> 'a) -> ('a, string) result
(** [parse s f] runs [f] over all of [s]: [Error] if [f] raises {!Bad} or
    leaves bytes unread. *)

val expect : t -> char -> unit

val word : t -> string
(** The bytes up to the next space, which is consumed too. *)

val int : t -> int
(** An optionally negative decimal that fits an OCaml [int]. *)

val str : t -> string
(** A [len:bytes] string. *)

val list : t -> (t -> 'a) -> 'a list
(** A count, then that many items, each after one space. *)
