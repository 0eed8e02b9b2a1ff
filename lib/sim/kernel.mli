(** The discrete-event kernel both engines run on: {!Engine} serves
    abstract costs and selectivity draws, [Spe.Dist_executor] real
    tuples.  It holds the one copy of per-node FIFO service (an item of
    [c] CPU seconds holds its node for [c / capacity], the capacity
    scaled by the fault schedule's slowdown), routing ([net_delay] plus
    jitter between nodes), pause–drain–resume migration (after the
    drain window a handoff switches the owner only if the destination
    is alive) and crashes (the node's queued and in-service items, and
    anything later routed to it, are lost; the assignment switches to
    the recovery).  Source arrivals stream from sorted per-stream arrays
    merged with the heap: at one instant arrivals come first (lower
    stream first), then heap events in push order, the first pushes
    being the controller tick, the crashes, then the scripted moves. *)

type 'p item = {
  op : int;
  input_idx : int;
  origin : float;  (** Event time of the source tuple that caused it. *)
  payload : 'p;
}

type migration = {
  drain_delay : float;
  transfer_delay : string * float;
      (** The engine's name for the base transfer after the handoff,
          and its seconds. *)
  state_delay : int -> float;  (** Per-operator extra seconds, clamped at [0]. *)
  resume_at : float -> float -> float -> float;
      (** [resume_at handoff base state]: when the transfer ends (each
          engine keeps its own rounding). *)
}

type summary = {
  latencies : Obs.Samples.t;  (** Measured sink outputs' latencies. *)
  arrivals : int;  (** Source tuples in the measured window. *)
  events : int;  (** One per arrival per reader, one per heap event. *)
  waiting : int;  (** Heap events left past [until]. *)
  queued : int;  (** Items in node queues and migration buffers. *)
  in_service : int;  (** Nodes holding an item in service. *)
  max_backlog : int;  (** The peak of [queued]. *)
  lost : int;  (** Measured items destroyed by crashes. *)
  dropped : int;  (** Measured items shed. *)
  migrations : int;  (** Migrations started. *)
  busy_time : float array;  (** Per node, busy seconds in the window. *)
  queue_depth : int array;  (** Per node, items queued at [until]. *)
}

val run :
  fn:string ->
  cat:string ->
  readers:(int * int) array array ->
  assignment:int array ->
  caps:Linalg.Vec.t ->
  sources:'s list array ->
  time:('s -> float) ->
  payload:('s -> 'p) ->
  faults:Fault.schedule ->
  net_delay:float ->
  warmup:float ->
  until:float ->
  shed_above:int ->
  op_service:Obs.Histogram.t array ->
  migration:migration option ->
  serve:(float -> int -> 'p item -> 'p list) ->
  cpu:float array ->
  complete:(float -> int -> 'p item -> unit) ->
  sink:(float -> 'p item -> 'p -> unit) ->
  tick:
    (float
    * (time:float ->
      busy:float array ->
      arrived:int array ->
      assignment:int array ->
      (int * int) list))
    option ->
  moves:(float * (int * int) list) list ->
  summary
(** Run up to [until].  [readers.(s)] lists the [(operator, input)]
    readers of input stream [s], then of operator [s - n_inputs]'s
    output, with [n_inputs = Array.length sources]; each source stream
    is stable-sorted by [time].  An item reaching a node that already
    queues [shed_above] items is dropped.  [op_service], empty or one
    histogram per operator, observes measured service seconds; [cat]
    names the trace category.

    [serve now node item] returns the payloads of an item's outputs
    when its service starts on [node], and sets [cpu.(node)] to its
    CPU seconds (a node serves one item at a time).  When the service
    ends on a live node, [complete now node item] runs, then each
    output goes to every reader of the item's operator; at a sink
    operator, a measured output's latency ([now] minus its origin) is
    kept and [sink now item payload] runs.  [tick = Some (interval,
    decide)] starts, every [interval], the [(operator, destination)]
    migrations that [decide] returns from the time, the per-node
    service seconds and per-stream arrivals so far, and the assignment
    (live arrays: read them, do not keep or write them); [moves] starts
    scripted ones.  A migration of an operator already migrating, or to
    its own or an unknown node, is ignored.
    @raise Invalid_argument prefixed by [fn] on a bad assignment,
    [until <= warmup], an invalid fault schedule or scripted move, an
    arrival time that is not finite or is negative (naming its stream
    and list index), a [net_delay], drain or transfer delay that is not
    finite or is negative, an [interval] that is not finite or not
    positive, or a [state_delay op] that is not finite (naming [op]). *)
