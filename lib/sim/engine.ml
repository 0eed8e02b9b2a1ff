(* rodlint: obs *)
(* rodlint: deterministic *)

module Vec = Linalg.Vec
module Graph = Query.Graph
module Op = Query.Op

let obs_runs = Obs.counter ~help:"Simulator runs completed" "rod_sim_runs_total"

let obs_events =
  Obs.counter ~help:"Simulator events processed" "rod_sim_events_total"

let obs_migrations =
  Obs.counter ~help:"Operator migrations started" "rod_sim_migrations_total"

let obs_lost =
  Obs.counter ~help:"Work items destroyed by injected faults"
    "rod_sim_lost_total"

let obs_queue_depth =
  Obs.gauge ~help:"Event-queue depth after the last event pop"
    "rod_sim_event_queue_depth"

let obs_sink_latency =
  Obs.histogram ~help:"End-to-end latency of sink outputs (seconds)"
    "rod_sim_sink_latency_seconds"

type config = {
  net_delay : float;
  seed : int;
  warmup : float;
  shed_above : int option;
  faults : Fault.schedule;
}

let default_config =
  {
    net_delay = 1e-3;
    seed = 0x5eed;
    warmup = 0.;
    shed_above = None;
    faults = Fault.none;
  }

type dynamic_config = {
  interval : float;
  migration_delay : float;
  drain_delay : float;
  state_delay : int -> float;
  decide :
    time:float ->
    utilization:float array ->
    op_cpu:float array ->
    rates:float array ->
    assignment:int array ->
    (int * int) list;
}

(* Sliding windows of a join operator: tuple timestamps per input side. *)
type join_state = {
  window : float;
  sides : float Queue.t array;
}

(* [(operator, input index)] readers of every stream, ascending: input
   stream [k] at slot [k], operator [j]'s output at slot [n_inputs + j]. *)
let readers graph =
  let d = Graph.n_inputs graph in
  let acc = Array.make (d + Graph.n_ops graph) [] in
  for j = Graph.n_ops graph - 1 downto 0 do
    let srcs = Array.of_list (Graph.sources graph j) in
    for idx = Array.length srcs - 1 downto 0 do
      let slot = match srcs.(idx) with Graph.Sys_input k -> k | Graph.Op_output i -> d + i in
      acc.(slot) <- (j, idx) :: acc.(slot)
    done
  done;
  Array.map Array.of_list acc

let bernoulli rng p = Random.State.float rng 1. < p

(* Output count of a linear operator with the given selectivity. *)
let emit_count rng sel =
  let base = int_of_float (floor sel) in
  let frac = sel -. float_of_int base in
  base + if frac > 0. && bernoulli rng frac then 1 else 0

let binomial rng n p =
  if p <= 0. || n = 0 then 0
  else if p >= 1. then n
  else begin
    let count = ref 0 in
    for _ = 1 to n do
      if bernoulli rng p then incr count
    done;
    !count
  end

(* [units k]: [k] unit payloads, shared for small [k] so a service allocates none. *)
let small_units = Array.init 64 (fun k -> List.init k (fun _ -> ()))
let units k = if k < 64 then small_units.(k) else List.init k (fun _ -> ())

let run ~graph ~assignment ~caps ~arrivals ?(config = default_config) ?dynamic
    ~until () =
  let m = Graph.n_ops graph and d = Graph.n_inputs graph and n = Vec.dim caps in
  if Array.length arrivals <> d then
    invalid_arg "Engine.run: arrivals per input stream expected";
  let rng = Random.State.make [| config.seed |] in
  let readers = readers graph in
  let joins = Hashtbl.create 4 in
  for j = 0 to m - 1 do
    match (Graph.op graph j).Op.kind with
    | Op.Join { window; _ } ->
      Hashtbl.add joins j
        { window; sides = [| Queue.create (); Queue.create () |] }
    | Op.Linear _ | Op.Var_selectivity _ -> ()
  done;
  let op_stats =
    Array.init m (fun j ->
        Sim_metrics.make_op_stat ~arity:(Op.arity (Graph.op graph j)))
  in
  let items_processed = ref 0 and outputs_count = ref 0 in
  let op_cpu_window = Array.make m 0. in
  (* Each node's item in service: its CPU seconds, output count and join
     pairs, all decided when its service starts. *)
  let cpu = Array.make n 0. and emitted = Array.make n 0 and pairs = Array.make n 0 in
  let serve now node (item : unit Kernel.item) =
    (cpu.(node) <-
       match (Graph.op graph item.op).Op.kind with
      | Op.Linear { costs; selectivities } ->
        emitted.(node) <- emit_count rng selectivities.(item.input_idx);
        pairs.(node) <- 0;
        costs.(item.input_idx)
      | Op.Var_selectivity { cost; sel_now; _ } ->
        emitted.(node) <- emit_count rng sel_now;
        pairs.(node) <- 0;
        cost
      | Op.Join { cost_per_pair; sel_per_pair; window = _ } ->
        let state = Hashtbl.find joins item.op in
        (* Tuples pair when their timestamps differ by at most window/2:
           both sides probe, each candidate pair is examined exactly once
           (when its later tuple arrives), and the pair rate is
           w * r_u * r_v — matching the load model of §6.2. *)
        let horizon = now -. (state.window /. 2.) in
        let expire q =
          while (not (Queue.is_empty q)) && Queue.peek q < horizon do
            ignore (Queue.pop q)
          done
        in
        Array.iter expire state.sides;
        let own = state.sides.(item.input_idx) in
        let opposite = state.sides.(1 - item.input_idx) in
        let p = Queue.length opposite in
        Queue.add now own;
        emitted.(node) <- binomial rng p sel_per_pair;
        pairs.(node) <- p;
        cost_per_pair *. float_of_int p);
    units emitted.(node)
  in
  let complete now node (item : unit Kernel.item) =
    op_cpu_window.(item.op) <- op_cpu_window.(item.op) +. cpu.(node);
    if now >= config.warmup && now <= until then begin
      incr items_processed;
      let (stat : Sim_metrics.op_stat) = op_stats.(item.op) and i = item.input_idx in
      stat.consumed.(i) <- stat.consumed.(i) + 1;
      stat.emitted.(i) <- stat.emitted.(i) + emitted.(node);
      stat.cpu.(i) <- stat.cpu.(i) +. cpu.(node);
      stat.pairs <- stat.pairs + pairs.(node)
    end
  in
  let sink now (item : unit Kernel.item) () =
    incr outputs_count;
    Obs.Histogram.observe obs_sink_latency (now -. item.origin)
  in
  (* The controller's inputs over the last interval: per-node
     utilization and per-stream arrival rates. *)
  let last_busy = Array.make n 0. and last_arrived = Array.make d 0 in
  let input_rate_gauges =
    match dynamic with
    | None -> [||]
    | Some _ ->
      Array.init d (fun k ->
          Obs.gauge
            ~labels:[ ("stream", string_of_int k) ]
            ~help:"Observed input rate over the last control interval (tuples/s)"
            "rod_sim_input_rate")
  in
  let tick dc ~time ~busy ~arrived ~assignment =
    let utilization =
      Array.mapi
        (fun i b ->
          let used = (b -. last_busy.(i)) /. dc.interval in
          last_busy.(i) <- b;
          Float.min 1. used)
        busy
    in
    let rates =
      Array.mapi
        (fun s count ->
          let r = float_of_int (count - last_arrived.(s)) /. dc.interval in
          last_arrived.(s) <- count;
          Obs.Gauge.set input_rate_gauges.(s) r;
          r)
        arrived
    in
    let op_cpu = Array.copy op_cpu_window in
    Array.fill op_cpu_window 0 m 0.;
    dc.decide ~time ~utilization ~op_cpu ~rates ~assignment:(Array.copy assignment)
  in
  let s =
    Kernel.run ~fn:"Engine.run" ~cat:"sim" ~readers ~assignment ~caps ~sources:arrivals
      ~time:Fun.id ~payload:ignore ~faults:config.faults ~net_delay:config.net_delay
      ~warmup:config.warmup ~until
      ~shed_above:(Option.value config.shed_above ~default:max_int)
      (* Per-op service-time histograms, resolved once up front so the
         event loop never touches the registry lock. *)
      ~op_service:
        (Array.init m (fun j ->
             Obs.histogram
               ~labels:[ ("op", string_of_int j) ]
               ~help:"Service wall time per work item (seconds)"
               "rod_sim_op_service_seconds"))
      ~migration:
        (Option.map
           (fun dc ->
             {
               Kernel.drain_delay = dc.drain_delay;
               transfer_delay = ("migration_delay", dc.migration_delay);
               state_delay = dc.state_delay;
               resume_at = (fun now base state -> now +. base +. state);
             })
           dynamic)
      ~serve ~cpu ~complete ~sink
      ~tick:(Option.map (fun dc -> (dc.interval, tick dc)) dynamic)
      ~moves:[]
  in
  (* Only events past [until] are left: the depth after the last pop. *)
  if s.events > 0 then Obs.Gauge.set obs_queue_depth (float_of_int s.waiting);
  Obs.Counter.incr obs_runs;
  Obs.Counter.add obs_events s.events;
  Obs.Counter.add obs_migrations s.migrations;
  Obs.Counter.add obs_lost s.lost;
  Obs.emit ~cat:"sim"
    ~args:
      [
        ("arrivals", string_of_int s.arrivals);
        ("outputs", string_of_int !outputs_count);
        ("events", string_of_int s.events);
      ]
    ~ts:0. ~dur:until "sim.run";
  let span = until -. config.warmup in
  {
    Sim_metrics.duration = span;
    utilization = Array.map (fun busy -> busy /. span) s.busy_time;
    latencies = s.latencies;
    arrivals = s.arrivals;
    items_processed = !items_processed;
    outputs = !outputs_count;
    backlog = s.queued + s.in_service;
    max_backlog = s.max_backlog;
    op_stats;
    migrations = s.migrations;
    dropped = s.dropped;
    lost = s.lost;
  }
