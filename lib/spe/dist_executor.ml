(* rodlint: obs *)

module Vec = Linalg.Vec
module Graph = Query.Graph
module Kernel = Dsim.Kernel
module Samples = Obs.Samples

let obs_runs = Obs.counter ~help:"SPE distributed runs" "rod_spe_runs_total"

let obs_arrivals =
  Obs.counter ~help:"Source tuples injected (measured window)"
    "rod_spe_arrivals_total"

let obs_outputs =
  Obs.counter ~help:"Tuples emitted by sinks (measured window)"
    "rod_spe_outputs_total"

let obs_lost =
  Obs.counter ~help:"Tuples destroyed by injected faults" "rod_spe_lost_total"

type config = {
  net_delay : float;
  warmup : float;
  faults : Dsim.Fault.schedule;
}

let default_config = { net_delay = 1e-3; warmup = 0.; faults = Dsim.Fault.none }

type migration_timing = {
  drain_delay : float;
  handoff_delay : float;
  state_delay : int -> float;
}

let default_timing =
  { drain_delay = 0.05; handoff_delay = 0.3; state_delay = (fun _ -> 0.) }

type result = {
  outputs : (int * Tuple.t) list;
  utilization : float array;
  latencies : Samples.t;
  arrivals : int;
  backlog : int;
  lost : int;
  migrations : int;
  op_stats : Executor.op_run_stat array;
}

let cost_model_of_graph graph op input_idx =
  match (Graph.op graph op).Query.Op.kind with
  | Query.Op.Linear { costs; _ } -> costs.(input_idx)
  | Query.Op.Join { cost_per_pair; _ } -> cost_per_pair
  | Query.Op.Var_selectivity { cost; _ } -> cost

let run ~network ~assignment ~caps ~cost ~inputs ?(config = default_config)
    ?(migrations = []) ?(timing = default_timing) ~until () =
  let m = Network.n_ops network and d = Network.n_inputs network in
  if Array.length inputs <> d then
    invalid_arg "Dist_executor.run: one tuple list per input stream";
  (* Readers of input stream [k] at slot [k], of op [j]'s output at [d + j]. *)
  let readers =
    Array.init (d + m) (fun s ->
        Array.of_list
          (Network.consumers network
             (if s < d then Graph.Sys_input s else Graph.Op_output (s - d))))
  in
  let states = Array.init m (fun j -> Executor.replay_state (Network.op network j)) in
  let stats = Array.init m (fun j -> Executor.replay_stat (Network.op network j)) in
  let outputs = ref [] in
  (* The CPU seconds of each node's item in service. *)
  let cpu = Array.make (Vec.dim caps) 0. in
  (* The operator runs when service starts, and its outputs ride on the
     completion: a node that dies mid-service keeps the state change
     and loses only the outputs. *)
  let serve _now node (item : Tuple.t Kernel.item) =
    let sop = Network.op network item.op in
    let stat = stats.(item.op) in
    let pairs_before = stat.Executor.pairs in
    let out = Executor.replay_process sop states.(item.op) stat item.input_idx item.payload in
    (* [replay_process] maintains only [pairs]; the consumed/emitted
       counters are the caller's job (as in [Executor.run]'s own loop). *)
    stat.Executor.consumed.(item.input_idx) <-
      stat.Executor.consumed.(item.input_idx) + 1;
    stat.Executor.emitted <- stat.Executor.emitted + List.length out;
    (cpu.(node) <-
       match sop with
       | Sop.Equi_join _ ->
         cost item.op item.input_idx *. float_of_int (stat.Executor.pairs - pairs_before)
       | _ -> cost item.op item.input_idx);
    out
  in
  let sink _ (item : Tuple.t Kernel.item) t = outputs := (item.op, t) :: !outputs in
  let s =
    Kernel.run ~fn:"Dist_executor.run" ~cat:"spe" ~readers ~assignment ~caps
      ~sources:inputs ~time:Tuple.ts ~payload:Fun.id ~faults:config.faults
      ~net_delay:config.net_delay ~warmup:config.warmup ~until ~shed_above:max_int
      ~op_service:[||]
      ~migration:
        (Some
           {
             Kernel.drain_delay = timing.drain_delay;
             transfer_delay = ("handoff_delay", timing.handoff_delay);
             state_delay = timing.state_delay;
             resume_at = (fun now base state -> now +. (base +. state));
           })
      ~serve ~cpu ~complete:(fun _ _ _ -> ()) ~sink ~tick:None ~moves:migrations
  in
  let span = until -. config.warmup in
  let outputs_count = List.length !outputs in
  Obs.Counter.incr obs_runs;
  Obs.Counter.add obs_arrivals s.arrivals;
  Obs.Counter.add obs_outputs outputs_count;
  Obs.Counter.add obs_lost s.lost;
  Array.iteri
    (fun i busy ->
      let labels = [ ("node", string_of_int i) ] in
      Obs.Gauge.set
        (Obs.gauge ~labels ~help:"Busy fraction over the measured window"
           "rod_spe_node_utilization")
        (busy /. span);
      Obs.Gauge.set
        (Obs.gauge ~labels ~help:"Work items still queued at run end"
           "rod_spe_node_queue_depth")
        (float_of_int s.queue_depth.(i)))
    s.busy_time;
  Obs.emit ~cat:"spe"
    ~args:
      [
        ("arrivals", string_of_int s.arrivals);
        ("outputs", string_of_int outputs_count);
        ("lost", string_of_int s.lost);
      ]
    ~ts:0. ~dur:until "spe.run";
  {
    outputs = List.rev !outputs;
    utilization = Array.map (fun busy -> busy /. span) s.busy_time;
    latencies = s.latencies;
    arrivals = s.arrivals;
    backlog = s.queued;
    lost = s.lost;
    migrations = s.migrations;
    op_stats = stats;
  }
