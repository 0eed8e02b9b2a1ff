(* sim-drift: discrete-event simulations with the margin controller in
   the loop.  Four HTTP-kind self-similar streams (the burstiest trace
   kind) feed 60 operators on 6 nodes while stream 0 ramps up and
   stream 1 fades, so the controller replans and migrates live on the
   same event loop.  Placement work is negligible; the event loop does
   almost all of it. *)

module Trace = Workload.Trace

let n_streams = 4
let n_nodes = 6
let ops_per_tree = 15
let mean_rate = 500.  (* tuples/s per stream before drift *)
let utilization = 0.6  (* modelled mean node utilization at [mean_rate] *)
let slack = 5.  (* simulated seconds after the last arrival *)

type realisation = {
  arrivals : float list array;  (** Per stream, ascending. *)
  injected : int array;
  engine_seed : int;  (** The engine's selectivity and join draws. *)
}

type inputs = {
  graph : Query.Graph.t;
  caps : Linalg.Vec.t;
  horizon : float;
  realisations : realisation array;
}

(* Each unit runs one short realisation of the scenario; latency
   percentiles pool the realisations' samples.  Short units give many
   throughput samples per run, and the pooled percentiles are as steady
   as one long run's. *)
let n_realisations = 4
let horizon = 20.

(* Stream 0 quadruples and stream 1 falls to 15% over the horizon. *)
let drift k s = if k = 0 then 1. +. (3. *. s) else if k = 1 then 1. -. (0.85 *. s) else 1.

(* The scenario (query graph and burst profile) is fixed; the seed
   draws its realisations (arrival times and the engine's selectivity
   draws).  Over different burst profiles, the p99 latency spreads far
   more from seed to seed than a code change moves it. *)
let scenario_seed = 0x51D

let generate tr ~seed =
  let shape = Random.State.make [| scenario_seed |] in
  let rng = Random.State.make [| seed; scenario_seed |] in
  let graph =
    Tracer.span tr "randgraph" (fun () ->
        Query.Randgraph.generate_trees ~rng:shape ~n_inputs:n_streams ~ops_per_tree)
  in
  (* Capacities put the modelled mean utilization at [utilization]. *)
  let l = Query.Load_model.(total_coefficients (derive graph)) in
  let demand = mean_rate *. Array.fold_left ( +. ) 0. l in
  let cap = demand /. (float_of_int n_nodes *. utilization) in
  let caps = Rod.Problem.homogeneous_caps ~n:n_nodes ~cap in
  let levels = 7 in
  let dt = horizon /. float_of_int (1 lsl levels) in
  let traces =
    Array.init n_streams (fun k ->
        let burst = Workload.Traces.synthesize ~levels ~dt ~rng:shape Workload.Traces.Http in
        let n = Trace.length burst in
        Trace.create ~dt
          (Array.mapi
             (fun t r -> mean_rate *. r *. drift k (float_of_int t /. float_of_int (n - 1)))
             burst.Trace.rates))
  in
  let realisation _ =
    let arrivals =
      Tracer.span tr "generators" (fun () ->
          Array.map (fun trace -> Workload.Generators.poisson_arrivals ~rng ~trace) traces)
    in
    {
      arrivals;
      injected = Array.map List.length arrivals;
      engine_seed = Random.State.bits rng;
    }
  in
  { graph; caps; horizon; realisations = Array.init n_realisations realisation }

type outcome = {
  realisation : int;
  wall : float;  (** Wall seconds of [Engine.run]. *)
  events : int;  (** [rod_sim_events_total] delta. *)
  failed : int;  (** Lost and dropped tuples, or all on an oracle failure. *)
  attempted : int;
  decisions : int;
  replans : int;
  rejects : int;
  moves : int;
  migrations : int;
  max_backlog : int;
  digest : string;
  oracle : string list;  (** Failed oracle checks. *)
}

let count_actions ctl =
  List.fold_left
    (fun (r, x, mv) (d : Dynamic.Controller.decision) ->
      match d.Dynamic.Controller.action with
      | Dynamic.Controller.Replanned o ->
        (r + 1, x, mv + List.length o.Dynamic.Replanner.moves)
      | Dynamic.Controller.Rejected _ -> (r, x + 1, mv)
      | Dynamic.Controller.Hold -> (r, x, mv))
    (0, 0, 0)
    (Dynamic.Controller.decisions ctl)

(* The benchmark's own checks of one run, outside every library layer;
   also returns the run's simulated sink latencies in seconds, or an
   error when [Obs.Samples] dropped some. *)
let check inp i ~wall ~events ctl (metrics : Dsim.Sim_metrics.t) =
  let r = inp.realisations.(i) in
  let samples = metrics.latencies in
  let stored = Obs.Samples.to_array samples in
  let latencies =
    if Obs.Samples.count samples > Array.length stored then
      Error
        (Printf.sprintf "%d latency samples but only %d stored" (Obs.Samples.count samples)
           (Array.length stored))
    else Ok stored
  in
  let oracle =
    List.filter_map
      (fun (c : Chaos.Oracle.check) ->
        if c.Chaos.Oracle.passed then None
        else Some (c.Chaos.Oracle.name ^ ": " ^ c.Chaos.Oracle.detail))
      (Chaos.Oracle.conservation ~drained:false ~graph:inp.graph ~injected:r.injected metrics)
  in
  let attempted = Array.fold_left ( + ) 0 r.injected in
  let replans, rejects, moves = count_actions ctl in
  let digest =
    String.concat "|"
      [
        Digest.to_hex (Digest.string (Dynamic.Controller.decisions_json ctl));
        Digest.to_hex (Digest.string (Marshal.to_string stored []));
        string_of_int events;
        string_of_int metrics.outputs;
        string_of_int metrics.items_processed;
        string_of_int metrics.migrations;
      ]
  in
  ( {
      realisation = i;
      wall;
      events;
      failed = (if oracle <> [] then attempted else metrics.lost + metrics.dropped);
      attempted;
      decisions = List.length (Dynamic.Controller.decisions ctl);
      replans;
      rejects;
      moves;
      migrations = metrics.migrations;
      max_backlog = metrics.max_backlog;
      digest = Digest.to_hex (Digest.string digest);
      oracle;
    },
    latencies )

(* One run of realisation [i]. *)
let run tr inp i =
  let r = inp.realisations.(i) in
  let problem =
    Tracer.span tr "problem" (fun () -> Rod.Problem.of_graph inp.graph ~caps:inp.caps)
  in
  let assignment =
    Tracer.span tr "rod_algorithm" (fun () -> Rod.Rod_algorithm.place problem)
  in
  let ctl =
    Dynamic.Controller.create ~cost_of:(Dynamic.Statesize.graph_cost inp.graph) problem
      ~assignment
  in
  let dyn = Dynamic.Controller.engine_config ctl in
  let decide ~time ~utilization ~op_cpu ~rates ~assignment =
    Tracer.span tr "controller" (fun () ->
        dyn.Dsim.Engine.decide ~time ~utilization ~op_cpu ~rates ~assignment)
  in
  let events0 = Tracer.counter "rod_sim_events_total" in
  let t0 = Unix.gettimeofday () in
  let metrics =
    Tracer.span tr "engine" (fun () ->
        Dsim.Engine.run ~graph:inp.graph ~assignment ~caps:inp.caps ~arrivals:r.arrivals
          ~config:{ Dsim.Engine.default_config with seed = r.engine_seed }
          ~dynamic:{ dyn with decide }
          ~until:(inp.horizon +. slack) ())
  in
  let wall = Unix.gettimeofday () -. t0 in
  let events = Tracer.counter "rod_sim_events_total" - events0 in
  Tracer.span tr "checks" (fun () -> check inp i ~wall ~events ctl metrics)
