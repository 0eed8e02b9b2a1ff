(* Seeded random runs of both engines on their shared kernel: random
   small graphs under random crash, slowdown, jitter and migration
   schedules.  Every run must conserve tuples on every arc, keep its
   loss, migration and backlog counters non-negative, and replay bit
   for bit from its seed. *)

module Vec = Linalg.Vec
module Graph = Query.Graph
module Fault = Dsim.Fault
module Oracle = Chaos.Oracle
module Sop = Spe.Sop
module Tuple = Spe.Tuple
module Value = Spe.Value

let horizon = 4.
let until = 6.

let uniform rng lo hi = lo +. Random.State.float rng (hi -. lo)

(* At most one crash, never of the only node, recovering every operator
   onto a survivor; plus up to two slowdown windows and one jitter
   window. *)
let random_faults rng ~n ~m =
  let window () =
    let from_ = uniform rng 0. horizon in
    (from_, from_ +. uniform rng 0.1 2.)
  in
  let crash =
    if n > 1 && Random.State.bool rng then begin
      let node = Random.State.int rng n in
      let survivor () = (node + 1 + Random.State.int rng (n - 1)) mod n in
      let recovery = Array.init m (fun _ -> survivor ()) in
      [ Fault.Crash { node; at = uniform rng 0. horizon; recovery } ]
    end
    else []
  in
  let slowdowns =
    List.init (Random.State.int rng 3) (fun _ ->
        let from_, until_ = window () in
        let node = Random.State.int rng n in
        Fault.Slowdown { node; from_; until_; factor = uniform rng 0.2 1. })
  in
  let jitter =
    if Random.State.bool rng then
      let from_, until_ = window () in
      [ Fault.Jitter { from_; until_; extra = uniform rng 0. 0.05 } ]
    else []
  in
  crash @ slowdowns @ jitter

(* Up to three [(time, moves)] migration steps. *)
let random_moves rng ~n ~m =
  List.init (Random.State.int rng 4) (fun _ ->
      (uniform rng 0. horizon, [ (Random.State.int rng m, Random.State.int rng n) ]))

let random_times rng = List.init (Random.State.int rng 300) (fun _ -> uniform rng 0. horizon)

let nonnegative ~lost ~migrations ~backlog = lost >= 0 && migrations >= 0 && backlog >= 0

let all_pass checks = List.for_all (fun c -> c.Oracle.passed) checks

let digest x = Digest.to_hex (Digest.string (Marshal.to_string x []))

(* --- Dsim.Engine ---------------------------------------------------- *)

let dsim_run seed =
  let rng = Random.State.make [| seed |] in
  let graph =
    Query.Randgraph.generate_trees ~rng ~n_inputs:(1 + Random.State.int rng 2)
      ~ops_per_tree:(1 + Random.State.int rng 4)
  in
  let m = Graph.n_ops graph and n = 1 + Random.State.int rng 3 in
  let assignment = Array.init m (fun _ -> Random.State.int rng n) in
  let caps = Vec.init n (fun _ -> uniform rng 0.01 0.1) in
  let arrivals = Array.init (Graph.n_inputs graph) (fun _ -> random_times rng) in
  let faults = random_faults rng ~n ~m in
  let script = random_moves rng ~n ~m in
  let state = Array.init m (fun _ -> uniform rng (-0.2) 0.5) in
  let interval = uniform rng 0.3 1.5 in
  let dynamic =
    {
      Dsim.Engine.interval;
      migration_delay = uniform rng 0. 0.5;
      drain_delay = uniform rng 0. 0.3;
      state_delay = (fun op -> state.(op));
      (* The scripted moves whose time falls in the interval just ended. *)
      decide =
        (fun ~time ~utilization:_ ~op_cpu:_ ~rates:_ ~assignment:_ ->
          List.concat_map
            (fun (at, moves) -> if at <= time && at > time -. interval then moves else [])
            script);
    }
  in
  let config =
    { Dsim.Engine.default_config with seed; net_delay = uniform rng 0. 0.01; faults }
  in
  let metrics = Dsim.Engine.run ~graph ~assignment ~caps ~arrivals ~config ~dynamic ~until () in
  (graph, Array.map List.length arrivals, metrics)

let prop_dsim =
  QCheck.Test.make ~name:"Dsim kernel: conservation, counters, replay" ~count:200
    QCheck.(make Gen.(int_bound 1_000_000))
    (fun seed ->
      let graph, injected, m = dsim_run seed in
      let _, _, again = dsim_run seed in
      let open Dsim.Sim_metrics in
      let summary m =
        ( (m.arrivals, m.items_processed, m.outputs, m.backlog, m.max_backlog),
          (m.migrations, m.dropped, m.lost, m.utilization),
          (Samples.to_array m.latencies, m.op_stats) )
      in
      all_pass (Oracle.conservation ~graph ~injected m)
      && nonnegative ~lost:m.lost ~migrations:m.migrations ~backlog:m.backlog
      && String.equal (digest (summary m)) (digest (summary again)))

(* --- Spe.Dist_executor ---------------------------------------------- *)

(* Filters, maps and unions over packet streams: each operator reads
   system inputs or earlier operators, so the network is acyclic. *)
let random_network rng =
  let d = 1 + Random.State.int rng 2 and m = 1 + Random.State.int rng 5 in
  let source j =
    let k = Random.State.int rng (d + j) in
    if k < d then Graph.Sys_input k else Graph.Op_output (k - d)
  in
  let op j =
    match Random.State.int rng 3 with
    | 0 ->
      let threshold = Random.State.int rng 1500 in
      (Sop.filter (fun t -> Value.to_int (Tuple.find t "bytes") >= threshold), [ source j ])
    | 1 -> (Sop.map (fun t -> t), [ source j ])
    | _ -> (Sop.union ~arity:2 (), [ source j; source j ])
  in
  Spe.Network.create ~n_inputs:d ~ops:(List.init m op) ()

let spe_run seed =
  let rng = Random.State.make [| seed |] in
  let network = random_network rng in
  let m = Spe.Network.n_ops network and n = 1 + Random.State.int rng 3 in
  let assignment = Array.init m (fun _ -> Random.State.int rng n) in
  let caps = Vec.init n (fun _ -> uniform rng 0.01 0.1) in
  let costs = Array.init m (fun _ -> uniform rng 1e-4 1e-3) in
  let inputs =
    Array.init (Spe.Network.n_inputs network) (fun _ ->
        List.map
          (fun ts -> Tuple.make ~ts [ ("bytes", Value.Int (Random.State.int rng 1500)) ])
          (random_times rng))
  in
  let faults = random_faults rng ~n ~m in
  let migrations = random_moves rng ~n ~m in
  let state = Array.init m (fun _ -> uniform rng (-0.2) 0.5) in
  let timing =
    {
      Spe.Dist_executor.drain_delay = uniform rng 0. 0.3;
      handoff_delay = uniform rng 0. 0.5;
      state_delay = (fun op -> state.(op));
    }
  in
  let config =
    { Spe.Dist_executor.default_config with net_delay = uniform rng 0. 0.01; faults }
  in
  let result =
    Spe.Dist_executor.run ~network ~assignment ~caps
      ~cost:(fun op _ -> costs.(op))
      ~inputs ~config ~migrations ~timing ~until ()
  in
  (network, Array.map List.length inputs, result)

let prop_spe =
  QCheck.Test.make ~name:"SPE kernel: conservation, counters, replay" ~count:200
    QCheck.(make Gen.(int_bound 1_000_000))
    (fun seed ->
      let network, injected, r = spe_run seed in
      let _, _, again = spe_run seed in
      let open Spe.Dist_executor in
      let summary r =
        ( r.outputs,
          (r.utilization, Obs.Samples.to_array r.latencies),
          (r.arrivals, r.backlog, r.lost, r.migrations, r.op_stats) )
      in
      all_pass (Oracle.conservation_spe ~network ~injected r)
      && nonnegative ~lost:r.lost ~migrations:r.migrations ~backlog:r.backlog
      && String.equal (digest (summary r)) (digest (summary again)))

(* Guards the properties against silently testing nothing: over their
   first seeds, some runs migrate and some lose work to a crash. *)
let test_schedules_bite () =
  let seeds = List.init 40 Fun.id in
  let dsim = List.map (fun s -> let _, _, m = dsim_run s in m) seeds in
  let spe = List.map (fun s -> let _, _, r = spe_run s in r) seeds in
  let some what p l = Alcotest.(check bool) what true (List.exists p l) in
  some "a Dsim run migrates" (fun m -> m.Dsim.Sim_metrics.migrations > 0) dsim;
  some "a Dsim run loses work" (fun m -> m.Dsim.Sim_metrics.lost > 0) dsim;
  some "a Dsim run ends with a backlog" (fun m -> m.Dsim.Sim_metrics.backlog > 0) dsim;
  some "an SPE run migrates" (fun r -> r.Spe.Dist_executor.migrations > 0) spe;
  some "an SPE run loses work" (fun r -> r.Spe.Dist_executor.lost > 0) spe;
  some "an SPE run ends with a backlog" (fun r -> r.Spe.Dist_executor.backlog > 0) spe

let suite =
  Alcotest.test_case "random schedules migrate and lose work" `Quick test_schedules_bite
  :: List.map
    (QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x4e12 |]))
    [ prop_dsim; prop_spe ]
