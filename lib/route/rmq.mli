(** Sparse-table range-minimum queries over an int array: O(n log n)
    preprocessing, O(1) queries on inclusive index ranges. The argmin
    of a tie is the leftmost minimising position, so query answers are
    deterministic. Built once per tree by {!Labels} for Euler-tour
    LCA. *)

type t

val build : int array -> t

(** [argmin t i j] is the index of the minimum value on the inclusive
    range [[min i j, max i j]] (leftmost on ties).
    @raise Invalid_argument if either index is out of range. *)
val argmin : t -> int -> int -> int

val length : t -> int
