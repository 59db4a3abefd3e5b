(** Physical frame suballocator over the page groups granted to an
    application kernel by the system resource manager.  Because the
    application kernel picks the frame for every mapping it loads, it
    fully controls physical page selection and replacement policy. *)

type t

val create : unit -> t

val add_group : t -> int -> unit
(** Add all 128 frames of a page group to the pool. *)

val take : t -> int -> int list
(** Reserve specific frames (device regions, channel pages).
    @raise Invalid_argument if the pool is exhausted. *)

val alloc : t -> int option
val free : t -> int -> unit
val available : t -> int

val low_water : t -> int
(** Fewest free frames left by any {!alloc} so far ([max_int] before the
    first). *)

val total : t -> int
val groups : t -> int list
