(** A binary-heap priority queue of timestamped events.

    Events with equal timestamps are dequeued in insertion order
    (a monotone sequence number breaks ties), which keeps simulation
    runs fully deterministic.  The heap is flat: times, sequence numbers
    and payloads sit in parallel arrays, so [push] and [take] allocate
    nothing beyond the occasional doubling of those arrays. *)

type 'a t

val create : unit -> 'a t

val is_empty : 'a t -> bool

val length : 'a t -> int

val push : 'a t -> time:float -> 'a -> unit

val top_time : 'a t -> float
(** Time of the earliest event, or [infinity] when empty. *)

val take : 'a t -> 'a
(** Remove and return the earliest event (read its time with
    {!top_time} first).
    @raise Invalid_argument when empty. *)
