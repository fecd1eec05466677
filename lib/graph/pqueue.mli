(** Binary min-heap of [int] payloads under [float] priorities, kept in
    two flat columns (an unboxed [float array] and an [int array]): the
    columns allocate nothing per push or pop, but a call to {!push}
    from another module boxes its float argument in the minor heap
    (two words; the dev profile's [-opaque] keeps the call out of
    line), as {!min_prio} boxes its result. Decrease-key is done by
    re-insertion (standard for Dijkstra with a settled-set check).
    Sifts compare with strict [<], so among equal priorities the pop
    order is a fixed function of the push/pop sequence. *)

type t

(** [create ()] is an empty queue. *)
val create : unit -> t

(** [is_empty q] is [true] iff [q] holds no items. *)
val is_empty : t -> bool

(** [length q] is the number of items currently in [q]. *)
val length : t -> int

(** [clear q] empties [q], keeping its capacity. *)
val clear : t -> unit

(** [push q prio x] inserts [x] with priority [prio]. *)
val push : t -> float -> int -> unit

(** [min_prio q] is the minimal priority in [q].
    @raise Not_found if [q] is empty. *)
val min_prio : t -> float

(** [pop_min q] removes an item of minimal priority and returns it.
    @raise Not_found if [q] is empty. *)
val pop_min : t -> int
