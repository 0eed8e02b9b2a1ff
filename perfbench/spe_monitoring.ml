(* spe-monitoring: the CQL monitoring query on the semantic distributed
   engine.  Same kernel shape as the simulator, but each event does real
   tuple work (filters, grouped aggregates, a windowed join) on two
   packet feeds. *)

module Sop = Spe.Sop

let query_path = "examples/queries/monitoring.rql"
let n_nodes = 3
let rate = 500.  (* packets/s per feed *)
let profile_prefix = 5.  (* seconds of input the profiler samples *)
let slack = 4.  (* simulated seconds after the last packet *)

(* A fixed per-tuple cost for every operator: the placement must not
   depend on the profiler's wall-clock measurements. *)
let skeleton_cost = 2e-4

type inputs = {
  source : string;  (** The CQL text. *)
  feeds : Spe.Tuple.t list array;
  horizon : float;
}

let generate tr ~seed =
  let source = In_channel.with_open_bin query_path In_channel.input_all in
  let rng = Random.State.make [| seed; 0x5BE |] in
  let horizon = 60 in
  let trace = Workload.Trace.create ~dt:1. (Array.make horizon rate) in
  let feeds =
    Tracer.span tr "datagen" (fun () ->
        Array.init 2 (fun _ -> Spe.Datagen.packets ~rng ~trace ~hosts:16 ()))
  in
  { source; feeds; horizon = float_of_int horizon }

(* Everything the timed engine runs on, derived once per process:
   compiled network, profile, placement, and the logical reference. *)
type prepared = {
  network : Spe.Network.t;
  graph : Query.Graph.t;  (** The fixed-cost skeleton placement runs on. *)
  assignment : int array;
  caps : Linalg.Vec.t;
  profiled_cost : float;  (** Mean profiled cost, reported only. *)
  reference : Spe.Executor.result;
  injected : int array;
  cutoff : float;
}

let take_until t0 l = List.filter (fun t -> Spe.Tuple.ts t < t0) l

let last_ts l = List.fold_left (fun acc t -> Float.max acc (Spe.Tuple.ts t)) 0. l

(* The logical executor flushes open aggregate windows at end of stream;
   the timed engine cannot.  Compare outputs up to the last boundary the
   timed engine closes: an aggregate boundary closes when a tuple at or
   past it arrives, so it is the last boundary at or before the earliest
   feed end. *)
let cutoff_of network feeds =
  let last = Array.fold_left (fun acc f -> Float.min acc (last_ts f)) infinity feeds in
  let slide = ref 0. in
  for j = 0 to Spe.Network.n_ops network - 1 do
    match Spe.Network.op network j with
    | Sop.Aggregate a -> slide := Float.max !slide a.slide
    | _ -> ()
  done;
  if !slide = 0. then last else Float.of_int (truncate (last /. !slide)) *. !slide

let prepare tr inp =
  let compiled =
    Tracer.span tr "cql" (fun () -> Cql.Frontend.compile_string inp.source)
  in
  match compiled with
  | Error e -> Error (Cql.Frontend.error_to_string e)
  | Ok c ->
    let network = c.Cql.Compile.network in
    let sample = Array.map (take_until profile_prefix) inp.feeds in
    let profile =
      Tracer.span tr "profiler" (fun () -> Spe.Profiler.profile network ~inputs:sample)
    in
    let per_op = profile.Spe.Profiler.per_op in
    let profiled_cost =
      Array.fold_left (fun acc p -> acc +. p.Spe.Profiler.cost) 0. per_op
      /. float_of_int (Array.length per_op)
    in
    let graph = Spe.Network.skeleton ~costs:(fun _ -> skeleton_cost) network in
    let problem =
      Tracer.span tr "problem" (fun () ->
          Rod.Problem.of_graph graph
            ~caps:(Rod.Problem.homogeneous_caps ~n:n_nodes ~cap:1.))
    in
    let assignment =
      Tracer.span tr "rod_algorithm" (fun () -> Rod.Rod_algorithm.place problem)
    in
    (* Scale capacities so the modelled hottest node runs at 60%. *)
    let model = Query.Load_model.derive graph in
    let vars =
      Query.Load_model.eval_vars model
        ~sys_rates:(Linalg.Vec.of_list [ rate; rate ])
    in
    let ln = Rod.Plan.node_loads (Rod.Plan.make problem assignment) in
    let hottest =
      Linalg.Vec.max_elt
        (Linalg.Vec.init n_nodes (fun i -> Linalg.Vec.dot (Linalg.Mat.row ln i) vars))
    in
    let caps = Linalg.Vec.create n_nodes (hottest /. 0.6) in
    let reference =
      Tracer.span tr "executor" (fun () -> Spe.Executor.run network ~inputs:inp.feeds)
    in
    Ok
      {
        network;
        graph;
        assignment;
        caps;
        profiled_cost;
        reference;
        injected = Array.map List.length inp.feeds;
        cutoff = cutoff_of network inp.feeds;
      }

type outcome = {
  wall : float;  (** Wall seconds of [Dist_executor.run]. *)
  tuples : int;  (** Source tuples the engine took in. *)
  outputs : int;
  latency_count : int;
  p99 : (float, string) result;  (** Simulated sink latency, seconds. *)
  failed : int;
  attempted : int;
  digest : string;
  oracle : string list;  (** Failed oracle checks. *)
}

(* Order-independent rendering of the sink multiset. *)
let multiset_digest outputs =
  let rows =
    List.map
      (fun (op, t) -> Printf.sprintf "%d %s" op (Format.asprintf "%a" Spe.Tuple.pp t))
      outputs
  in
  Digest.to_hex (Digest.string (String.concat "\n" (List.sort String.compare rows)))

(* The benchmark's own checks of one run, outside every library layer. *)
let check p ~wall result =
  let checks =
    Chaos.Oracle.sink_multiset ~mode:`Equal ~cutoff:p.cutoff ~logical:p.reference
      ~dist:result
    :: Chaos.Oracle.conservation_spe ~network:p.network ~injected:p.injected result
  in
  let oracle =
    List.filter_map
      (fun (c : Chaos.Oracle.check) ->
        if c.Chaos.Oracle.passed then None
        else Some (c.Chaos.Oracle.name ^ ": " ^ c.Chaos.Oracle.detail))
      checks
  in
  let attempted = Array.fold_left ( + ) 0 p.injected in
  let latencies = result.Spe.Dist_executor.latencies in
  let p99 = Stats.samples_percentile latencies 99. in
  let outputs = List.length result.Spe.Dist_executor.outputs in
  {
    wall;
    tuples = result.Spe.Dist_executor.arrivals;
    outputs;
    latency_count = Obs.Samples.count latencies;
    p99;
    failed = (if oracle <> [] then attempted else result.Spe.Dist_executor.lost);
    attempted;
    digest =
      Printf.sprintf "%s|%s|%d|%d"
        (multiset_digest result.Spe.Dist_executor.outputs)
        (match p99 with Ok v -> Printf.sprintf "%h" v | Error e -> e)
        result.Spe.Dist_executor.arrivals outputs;
    oracle;
  }

let run tr inp p =
  let t0 = Unix.gettimeofday () in
  let result =
    Tracer.span tr "dist_executor" (fun () ->
        Spe.Dist_executor.run ~network:p.network ~assignment:p.assignment ~caps:p.caps
          ~cost:(Spe.Dist_executor.cost_model_of_graph p.graph)
          ~inputs:inp.feeds ~until:(inp.horizon +. slack) ())
  in
  let wall = Unix.gettimeofday () -. t0 in
  Tracer.span tr "checks" (fun () -> check p ~wall result)
