(** Reliable links over a lossy network: a program combinator.

    [lift p] wraps any CONGEST {!Engine.program} with a per-link
    stop-and-wait ARQ: every payload [p] sends is given a sequence
    number, carried in an {!envelope} with a piggybacked cumulative
    ack, and retransmitted every {!rto} rounds until acknowledged (or
    until [max_retries] resends, after which the link is declared dead
    and its queue abandoned). Under a {!Fault.plan} with random drops,
    the lifted program behaves like [p] running on a reliable but
    *asynchronous* network: payloads arrive in order on each link, but
    with unpredictable delay.

    Consequently [lift] preserves correctness only for programs whose
    result is independent of message timing (self-stabilising
    fixpoints such as {!Primitives.Bfs.relaxing_program}, flooding,
    idempotent aggregation) — a protocol that relies on lockstep
    synchrony (e.g. counting rounds to measure distance) is *not*
    rescued by [lift]. See DESIGN.md, "Fault model & recovery".

    Costs, charged honestly in {!Engine.stats}: every payload envelope
    pays 2 extra words (sequence number and ack), and a pure-ack
    envelope weighs exactly 2, so with the engine's default [word_cap]
    of 4, payloads of up to 2 words lift without raising the cap; each
    retransmission is an extra
    message (and is counted in [stats.retransmissions] via
    {!Engine.count_retransmission}); fault-free, a lifted program runs
    the same number of rounds as the original and sends one pure-ack
    envelope per data envelope. *)

(** The wire format: a cumulative acknowledgement ([ack = k] means
    "I have received every sequence number [< k] on this link") plus
    an optional sequence-numbered payload. *)
type 'm envelope = { ack : int; data : (int * 'm) option }

(** Lifted node state; the inner state is recovered with {!project}. *)
type ('s, 'm) state

(** Retransmission timeout in rounds. One round up, one round for the
    piggybacked ack back: with [rto = 2] a fault-free run never
    retransmits spuriously. *)
val rto : int

(** [lift ?max_retries p] is the ARQ-wrapped program. Each of its
    steps reads the envelopes, then steps [p] through {!Engine.nested}
    on the payloads accepted in order this round (newest first, as the
    engine's inbox is), queues [p]'s sends on their links and sends at
    most one envelope per link. [max_retries] (default 32) bounds
    resends per payload; past it the link is declared dead, queued
    payloads are discarded and counted in {!gave_up}. *)
val lift :
  ?max_retries:int ->
  ('s, 'm) Engine.program ->
  (('s, 'm) state, 'm envelope) Engine.program

(** The wrapped program's own state. *)
val project : ('s, 'm) state -> 's

(** Number of payloads abandoned on links declared dead (0 in any run
    where every payload eventually got through). *)
val gave_up : ('s, 'm) state -> int
