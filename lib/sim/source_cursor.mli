(** The event loop both engines share: source arrivals streamed from
    per-stream arrays of arrival times, merged with the event heap.

    The engines no longer push every source tuple into the heap up
    front.  A cursor over the per-stream arrays yields the arrivals of
    all streams in [(time, stream index, position)] order, and the loop
    takes the earlier of the cursor's head and the heap's top, the
    cursor winning ties.  So an arrival comes before every other event
    at the same instant — the order the arrivals had when they held the
    heap's lowest sequence numbers. *)

val sort_stream :
  fn:string -> stream:int -> time:('a -> float) -> 'a list -> 'a array
(** [sort_stream ~fn ~stream ~time items] checks every arrival time and
    returns the items stable-sorted by [time]: any order is accepted,
    and equal times keep list order.
    @raise Invalid_argument naming [fn], the stream and the list index
    of the first time that is not finite or is negative. *)

val run :
  float array array ->
  'a Event_queue.t ->
  until:float ->
  arrive:(float -> int -> int -> unit) ->
  handle:(float -> 'a -> unit) ->
  unit
(** [run times events ~until ~arrive ~handle] processes, in time order,
    every arrival and event at or before [until]: [arrive now k i] for
    arrival [i] of stream [k] (with [times.(k)] ascending, e.g. from
    {!sort_stream}), and [handle now event] for each event taken from
    the heap.  Both may push further events.  Events past [until] stay
    in the heap. *)
