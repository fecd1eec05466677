(** Sequential Eulerian (depth-first) tour of a rooted tree — the
    reference implementation for Section 3 of the paper.

    The tour [L = {x_0, ..., x_{2n-2}}] visits each tree edge exactly
    twice; position [i] holds a vertex appearance with visiting time
    [R_{x_i}] (the weighted distance travelled along [L] from the root
    to that appearance). Children are visited in increasing vertex-id
    order, matching the distributed construction so the two can be
    compared entry-for-entry. *)

type t = {
  seq : int array;  (** vertex at each tour position; length [2n - 1] *)
  time : float array;  (** [R_x] of each position (weighted) *)
  positions : int list array;
      (** [positions.(v)]: tour positions where [v] appears, increasing *)
  total : float;  (** total tour length = [2 w(T)] *)
}

(** [of_tree tree] is the Euler tour of [tree] (must span its host
    graph). *)
val of_tree : Tree.t -> t

(** [length t] is the number of tour positions ([2n - 1]). *)
val length : t -> int

(** Structural invariant check (adjacent tour entries are tree
    neighbours, times increase by edge weights, each vertex appears
    [deg_T] times, root one extra). Used by the test-suite. *)
val check : Tree.t -> t -> (unit, string) result
