(* rodlint: obs *)
(* rodlint: deterministic *)
(* rodproto: protocol — pause/drain/resume live migration; the role
   markers below bind the per-operator protocol state rodproto tracks *)

type 'p item = {
  op : int;
  input_idx : int;
  origin : float;
  payload : 'p;
}

type 'p event =
  | Deliver of 'p item  (* routed to the operator's current node *)
  | Complete of int * 'p item * 'p list  (* node, item, outputs *)
  | Tick  (* controller wake-up *)
  | Migrate of (int * int) list  (* scripted (op, dest) migrations *)
  | Handoff of int  (* drain window closed; rodproto: role drain-event *)
  | Resume of int  (* transfer finished; rodproto: role resume-event *)
  | Crash of int * int array  (* node dies; switch to recovery *)

type migration = {
  drain_delay : float;
  transfer_delay : string * float;
  state_delay : int -> float;
  resume_at : float -> float -> float -> float;
}

type summary = {
  latencies : Obs.Samples.t;
  arrivals : int;
  events : int;
  waiting : int;
  queued : int;
  in_service : int;
  max_backlog : int;
  lost : int;
  dropped : int;
  migrations : int;
  busy_time : float array;
  queue_depth : int array;
}

let reject fn name v rule = invalid_arg (Printf.sprintf "%s: %s = %g (must be %s)" fn name v rule)

let check_delay fn name v =
  if not (Float.is_finite v && v >= 0.) then reject fn name v "finite and >= 0"

let sort_stream ~fn ~stream ~time items =
  let ascending = ref true and last = ref 0. in
  List.iteri
    (fun i item ->
      let t = time item in
      if not (Float.is_finite t && t >= 0.) then
        invalid_arg
          (Printf.sprintf "%s: stream %d arrival %d has time %g (must be finite and >= 0)"
             fn stream i t);
      if t < !last then ascending := false;
      last := t)
    items;
  let a = Array.of_list items in
  if not !ascending then Array.stable_sort (fun x y -> Float.compare (time x) (time y)) a;
  a

let run ~fn ~cat ~readers ~assignment ~caps ~sources ~time ~payload ~faults ~net_delay
    ~warmup ~until ~shed_above ~op_service ~migration ~serve ~cpu ~complete ~sink ~tick ~moves =
  let d = Array.length sources in
  let m = Array.length readers - d and n = Linalg.Vec.dim caps in
  if Array.length assignment <> m then invalid_arg (fn ^ ": assignment length");
  Array.iter
    (fun node -> if node < 0 || node >= n then invalid_arg (fn ^ ": bad node index"))
    assignment;
  if until <= warmup then invalid_arg (fn ^ ": until <= warmup");
  check_delay fn "net_delay" net_delay;
  let mg =
    Option.value migration
      ~default:
        {
          drain_delay = 0.;
          transfer_delay = ("", 0.);
          state_delay = (fun _ -> 0.);
          resume_at = (fun now _ _ -> now);
        }
  in
  check_delay fn "drain_delay" mg.drain_delay;
  check_delay fn (fst mg.transfer_delay) (snd mg.transfer_delay);
  let state =
    Array.init m (fun op ->
        let s = mg.state_delay op in
        if not (Float.is_finite s) then reject fn (Printf.sprintf "state_delay %d" op) s "finite";
        Float.max 0. s)
  in
  Option.iter
    (fun (i, _) ->
      if not (Float.is_finite i && i > 0.) then reject fn "interval" i "finite and > 0")
    tick;
  let bad (op, dest) = op < 0 || op >= m || dest < 0 || dest >= n in
  if List.exists (fun (_, mv) -> List.exists bad mv) moves then
    invalid_arg (fn ^ ": bad migration");
  Fault.validate ~n_nodes:n ~n_ops:m faults;
  let sorted = Array.mapi (fun s items -> sort_stream ~fn ~stream:s ~time items) sources in
  let times = Array.map (Array.map time) sorted in
  (* [next.(s)]: stream [s]'s first unread arrival, and its arrivals so far. *)
  let next = Array.make d 0 in
  let events = Event_queue.create () in
  let assignment = Array.copy assignment in (* rodproto: role deployed-assignment *)
  let measured t = t >= warmup && t <= until in
  let dead = Array.make n false and busy = Array.make n false in
  let busy_time = Array.make n 0. in (* within the measured window *)
  let busy_accum = Array.make n 0. in (* in all, for the controller *)
  let queues = Array.init n (fun _ -> Queue.create ()) in (* rodproto: role input-queue *)
  let migrating = Array.make m false in (* rodproto: role paused *)
  let pending = Array.make m (-1) in (* rodproto: role pending *)
  let buffers = Array.init m (fun _ -> Queue.create ()) in (* rodproto: role buffer *)
  let migration_start = Array.make m 0. in
  let arrivals = ref 0 and n_events = ref 0 and lost = ref 0 and dropped = ref 0 in
  (* [queued] counts the items in node queues and migration buffers. *)
  let queued = ref 0 and max_backlog = ref 0 and migrations = ref 0 in
  let latencies = Obs.Samples.create () in
  (* One output of [item]'s operator: to every reader, or out of the
     system at a sink. *)
  let route now item payload =
    let out = readers.(d + item.op) in
    if Array.length out = 0 && measured now then begin
      Obs.Samples.add latencies (now -. item.origin);
      sink now item payload
    end;
    for r = 0 to Array.length out - 1 do
      let op, input_idx = out.(r) in
      let delay =
        if assignment.(op) = assignment.(item.op) then 0.
        else net_delay +. Fault.extra_delay faults ~time:now
      in
      Event_queue.push events ~time:(now +. delay)
        (Deliver { op; input_idx; origin = item.origin; payload })
    done
  in
  let rec route_all now item = function
    | [] -> ()
    | payload :: rest -> route now item payload; route_all now item rest
  in
  let start_service node now =
    let queue = queues.(node) in
    if not (Queue.is_empty queue) then begin
      let item = Queue.take queue in
      decr queued;
      let outputs = serve now node item in
      let capacity = caps.(node) *. Fault.capacity_factor faults ~node ~time:now in
      let wall = cpu.(node) /. capacity in
      if Array.length op_service > 0 && measured now then
        Obs.Histogram.observe op_service.(item.op) wall;
      let finish = now +. wall in
      (* Busy time clipped to the measured window. *)
      let lo = Float.max now warmup and hi = Float.min finish until in
      if hi > lo then busy_time.(node) <- busy_time.(node) +. (hi -. lo);
      busy_accum.(node) <- busy_accum.(node) +. wall;
      busy.(node) <- true;
      Event_queue.push events ~time:finish (Complete (node, item, outputs))
    end
  in
  (* Route to the operator's current node, or into its buffer while it
     migrates. *)
  let deliver now item =
    if migrating.(item.op) then begin
      Queue.add item buffers.(item.op);
      incr queued
    end
    else begin
      let node = assignment.(item.op) in
      if dead.(node) then begin
        (* Only a broken recovery still routes here. *)
        if measured now then incr lost
      end
      else if Queue.length queues.(node) >= shed_above then begin
        if measured now then incr dropped
      end
      else begin
        Queue.add item queues.(node);
        incr queued;
        if not busy.(node) then start_service node now
      end
    end;
    if !queued > !max_backlog then max_backlog := !queued
  in
  (* Pause–drain–resume, step 1 (pause): the operator's queued items
     move into its buffer (an in-service item finishes on the old node),
     new input buffers, and the drain window opens.  The assignment
     switches only at the [Handoff] closing it. *)
  let start_migration now (op, dest) =
    if (not migrating.(op)) && dest <> assignment.(op) && dest >= 0 && dest < n then begin
      let old_queue = queues.(assignment.(op)) in
      let kept = Queue.create () in
      Queue.iter
        (fun item -> if item.op = op then Queue.add item buffers.(op) else Queue.add item kept)
        old_queue;
      Queue.clear old_queue;
      Queue.transfer kept old_queue;
      migrating.(op) <- true;
      pending.(op) <- dest;
      incr migrations;
      migration_start.(op) <- now;
      Event_queue.push events ~time:(now +. mg.drain_delay) (Handoff op)
    end
  in
  (* One source arrival: an item for every reader of its stream, each
     counted as one event. *)
  let arrive now s i =
    if measured now then incr arrivals;
    let payload = payload sorted.(s).(i) and out = readers.(s) in
    for r = 0 to Array.length out - 1 do
      let op, input_idx = out.(r) in
      incr n_events;
      deliver now { op; input_idx; origin = now; payload }
    done
  in
  let handle now event =
    incr n_events;
    match event with
    | Deliver item -> deliver now item
    | Complete (node, _, _) when dead.(node) ->
      (* The node died while this item was in service: the item and its
         outputs perish with it. *)
      if measured now then incr lost
    | Complete (node, item, outputs) ->
      busy.(node) <- false;
      complete now node item;
      route_all now item outputs;
      start_service node now
    | Tick ->
      Option.iter
        (fun (interval, decide) ->
          List.iter (start_migration now)
            (decide ~time:now ~busy:busy_accum ~arrived:next ~assignment);
          if now +. interval <= until then Event_queue.push events ~time:(now +. interval) Tick)
        tick
    | Migrate moves -> List.iter (start_migration now) moves
    | Handoff op ->
      (* Drain window closed: switch the owner iff the destination is
         still alive, then transfer state.  A dead destination aborts
         the migration: the operator resumes wherever the (possibly
         recovery-remapped) assignment says it lives. *)
      let dest = pending.(op) in
      (* rodproto: gated-by Deploy.finish — deployed/replanned plans are gated *)
      if dest >= 0 && not dead.(dest) then assignment.(op) <- dest;
      Event_queue.push events
        ~time:(mg.resume_at now (snd mg.transfer_delay) state.(op))
        (Resume op)
    | Resume op ->
      migrating.(op) <- false;
      pending.(op) <- -1;
      Obs.emit ~cat
        ~args:[ ("op", string_of_int op); ("to", string_of_int assignment.(op)) ]
        ~ts:migration_start.(op)
        ~dur:(now -. migration_start.(op))
        (cat ^ ".migrate");
      let flush = Queue.create () in
      queued := !queued - Queue.length buffers.(op);
      Queue.transfer buffers.(op) flush;
      Queue.iter (fun item -> deliver now item) flush
    | Crash (node, recovery) ->
      dead.(node) <- true;
      Obs.instant ~cat:"fault" ~ts:now ~args:[ ("node", string_of_int node) ] "fault.crash";
      (* Queued items die with the node; the in-service one when its
         [Complete] fires. *)
      if measured now then lost := !lost + Queue.length queues.(node);
      queued := !queued - Queue.length queues.(node);
      Queue.clear queues.(node);
      let moved = ref 0 in
      Array.iteri (fun j dest -> if dest <> assignment.(j) then incr moved) recovery;
      Obs.instant ~cat:"fault" ~ts:now
        ~args:[ ("node", string_of_int node); ("ops_moved", string_of_int !moved) ]
        "fault.recovery";
      (* rodproto: gated-by Deploy.finish — recovery plans ship gated with the deployment *)
      Array.blit recovery 0 assignment 0 m
  in
  Option.iter (fun (interval, _) -> Event_queue.push events ~time:interval Tick) tick;
  List.iter
    (fun (at, node, recovery) ->
      if at <= until then Event_queue.push events ~time:at (Crash (node, recovery)))
    (Fault.crashes faults);
  List.iter
    (fun (at, mv) -> if at <= until then Event_queue.push events ~time:at (Migrate mv))
    moves;
  (* A k-way merge of the sorted streams with the heap: [head] is the
     stream holding the earliest unread arrival (the lowest index among
     equal times), or [-1] once every stream is read. *)
  let head = ref (-1) in
  let find_head () =
    head := -1;
    for s = 0 to d - 1 do
      let i = next.(s) in
      if i < Array.length times.(s) && (!head < 0 || times.(s).(i) < times.(!head).(next.(!head)))
      then head := s
    done
  in
  find_head ();
  let rec loop () =
    let next_event = Event_queue.top_time events in
    if !head >= 0 && times.(!head).(next.(!head)) <= next_event then begin
      let s = !head and i = next.(!head) in
      let now = times.(s).(i) in
      if now <= until then begin
        next.(s) <- i + 1;
        find_head ();
        arrive now s i;
        loop ()
      end
    end
    else if next_event <= until && not (Event_queue.is_empty events) then begin
      handle next_event (Event_queue.take events);
      loop ()
    end
  in
  loop ();
  {
    latencies;
    arrivals = !arrivals;
    events = !n_events;
    waiting = Event_queue.length events;
    queued = !queued;
    in_service = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 busy;
    max_backlog = !max_backlog;
    lost = !lost;
    dropped = !dropped;
    migrations = !migrations;
    busy_time;
    queue_depth = Array.map Queue.length queues;
  }
