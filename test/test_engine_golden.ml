(* Golden digests of both simulation engines on small seeded scenarios
   that stress event order: equal arrival timestamps across streams and
   within one stream, arrivals at the same instant as a controller tick,
   a migration handoff or a crash, non-ascending arrival lists,
   controller migrations, a crash + slowdown + jitter fault schedule and
   load shedding.  Every time in these scenarios sits on a 1/64-s grid,
   so those coincidences are exact.

   A digest covers everything a run reports.  For [Dsim.Engine]:
   latencies, the counters, [max_backlog], [op_stats], utilization, the
   controller's inputs or its decision log, and the event count and
   final queue-depth gauge.  For [Spe.Dist_executor]: the sink outputs
   in emission order, latencies, [lost], [migrations] and the other
   counters.  The digests were recorded from the engines before their
   event loops were rewritten; any change to event order shows up
   here. *)

module Vec = Linalg.Vec
module Graph = Query.Graph
module Op = Query.Op
module Engine = Dsim.Engine
module Fault = Dsim.Fault
module Sim_metrics = Dsim.Sim_metrics
module Tuple = Spe.Tuple
module Value = Spe.Value
module Sop = Spe.Sop
module Network = Spe.Network
module Dist = Spe.Dist_executor

let grid = 64.

(* [n] grid times in [0, span), in random (non-ascending) order, with
   many duplicates, plus the listed fixed instants. *)
let grid_times rng ~n ~span ~fixed =
  let slots = int_of_float (span *. grid) in
  fixed
  @ List.init n (fun _ -> float_of_int (Random.State.int rng slots) /. grid)

let add_floats b a =
  Array.iter (fun x -> Printf.bprintf b "%h " x) a;
  Buffer.add_char b '\n'

let add_ints b a =
  Array.iter (fun x -> Printf.bprintf b "%d " x) a;
  Buffer.add_char b '\n'

let counter_value name = Obs.Counter.value (Obs.counter name)

let gauge_value name = Obs.Gauge.value (Obs.gauge name)

let check_digest name ~expected b =
  Alcotest.(check string) name expected (Digest.to_hex (Digest.string (Buffer.contents b)))

(* --- Dsim.Engine ---------------------------------------------------- *)

(* Stream 0 feeds two readers (op 0, op 1); stream 1 feeds the join's
   right side (op 2) and a sink filter (op 4); op 3 unions op 1 and the
   join. *)
let dsim_graph () =
  Graph.create ~n_inputs:2
    ~ops:
      [
        (Op.filter ~cost:0.006 ~sel:0.8 (), [ Graph.Sys_input 0 ]);
        (Op.delay ~cost:0.004 ~sel:1.5 (), [ Graph.Sys_input 0 ]);
        ( Op.join ~window:0.5 ~cost_per_pair:4e-4 ~sel:0.3 (),
          [ Graph.Op_output 0; Graph.Sys_input 1 ] );
        (Op.union ~cost:0.003 ~n_inputs:2 (), [ Graph.Op_output 1; Graph.Op_output 2 ]);
        (Op.filter ~cost:0.005 ~sel:0.5 (), [ Graph.Sys_input 1 ]);
      ]
    ()

let dsim_arrivals ~seed ~n =
  let rng = Random.State.make [| seed |] in
  (* 0.5 and 1.0 are ticks, 1.25 a handoff, 3.5 the crash; 0.75 appears
     twice in stream 0. *)
  [|
    grid_times rng ~n ~span:5.5 ~fixed:[ 1.; 0.5; 0.75; 0.75; 1.25; 3.5 ];
    grid_times rng ~n ~span:5.5 ~fixed:[ 0.75; 0.5; 1.25; 1.; 3.5 ];
  |]

let add_dsim b (metrics : Sim_metrics.t) ~events =
  let open Sim_metrics in
  Printf.bprintf b "%h %d %d %d %d %d %d %d %d\n" metrics.duration metrics.arrivals
    metrics.items_processed metrics.outputs metrics.backlog metrics.max_backlog
    metrics.migrations metrics.dropped metrics.lost;
  add_floats b metrics.utilization;
  add_floats b (Samples.to_array metrics.latencies);
  Array.iter
    (fun s ->
      add_ints b s.consumed;
      add_ints b s.emitted;
      add_floats b s.cpu;
      Printf.bprintf b "%d\n" s.pairs)
    metrics.op_stats;
  Printf.bprintf b "events %d depth %h\n" events (gauge_value "rod_sim_event_queue_depth")

let run_dsim ?dynamic ~config ~arrivals ~assignment ~caps ~until graph =
  let events0 = counter_value "rod_sim_events_total" in
  let metrics =
    Engine.run ~graph ~assignment ~caps ~arrivals ~config ?dynamic ~until ()
  in
  (metrics, counter_value "rod_sim_events_total" - events0)

(* A scripted controller: fixed migrations at fixed ticks, logging every
   input the engine hands it. *)
let scripted_dynamic b script =
  {
    Engine.interval = 0.5;
    migration_delay = 0.125;
    drain_delay = 0.25;
    state_delay = (fun op -> 0.0625 *. float_of_int op);
    decide =
      (fun ~time ~utilization ~op_cpu ~rates ~assignment ->
        Printf.bprintf b "tick %h\n" time;
        add_floats b utilization;
        add_floats b op_cpu;
        add_floats b rates;
        add_ints b assignment;
        match List.assoc_opt time script with Some moves -> moves | None -> []);
  }

let test_dsim_ties_migrations_faults () =
  let graph = dsim_graph () in
  let assignment = [| 0; 1; 2; 0; 2 |] in
  let b = Buffer.create 4096 in
  let dynamic =
    scripted_dynamic b [ (1., [ (0, 1) ]); (2., [ (2, 0); (4, 1) ]); (3., [ (0, 2) ]) ]
  in
  let faults =
    [
      Fault.Crash { node = 2; at = 3.5; recovery = [| 0; 1; 0; 0; 1 |] };
      Fault.Slowdown { node = 0; from_ = 1.; until_ = 2.5; factor = 0.5 };
      Fault.Jitter { from_ = 2.; until_ = 4.; extra = 1. /. 128. };
    ]
  in
  let metrics, events =
    run_dsim ~dynamic
      ~config:{ Engine.default_config with seed = 11; warmup = 0.5; faults }
      ~arrivals:(dsim_arrivals ~seed:5 ~n:240) ~assignment
      ~caps:(Vec.of_list [ 1.; 0.8; 1.2 ])
      ~until:6. graph
  in
  Alcotest.(check bool) "migrated" true (metrics.Sim_metrics.migrations >= 3);
  Alcotest.(check bool) "lost work in the crash" true (metrics.Sim_metrics.lost > 0);
  add_dsim b metrics ~events;
  check_digest "dsim ties/migrations/faults"
    ~expected:"ba9fa1109de855367512f77db42d9531" b

let test_dsim_shed () =
  let b = Buffer.create 4096 in
  let metrics, events =
    run_dsim
      ~config:{ Engine.default_config with seed = 3; shed_above = Some 2 }
      ~arrivals:(dsim_arrivals ~seed:9 ~n:900) ~assignment:[| 0; 0; 1; 1; 0 |]
      ~caps:(Vec.of_list [ 1.; 1. ])
      ~until:5.75 (dsim_graph ())
  in
  Alcotest.(check bool) "shed" true (metrics.Sim_metrics.dropped > 0);
  add_dsim b metrics ~events;
  check_digest "dsim shed_above"
    ~expected:"da79ac0e90d72998fd79c835bdedb16d" b

(* The margin controller in the loop under a rate drift, with arrivals
   on the grid so that some coincide with its 1-s ticks. *)
let test_dsim_controller () =
  let rng = Random.State.make [| 7207 |] in
  let graph = Query.Randgraph.generate_trees ~rng ~n_inputs:2 ~ops_per_tree:8 in
  let problem =
    Rod.Problem.of_graph graph ~caps:(Rod.Problem.homogeneous_caps ~n:4 ~cap:1.)
  in
  let l = Rod.Problem.total_coefficients problem in
  let c_total = Rod.Problem.total_capacity problem in
  let horizon = 16 in
  let factor k t =
    let s = float_of_int t /. float_of_int (horizon - 1) in
    if k = 0 then 1. +. (2.5 *. s) else 1. -. (0.85 *. s)
  in
  let traces =
    Array.init 2 (fun k ->
        Workload.Trace.create ~dt:1.
          (Array.init horizon (fun t -> 0.3 *. c_total /. l.(k) *. factor k t)))
  in
  let arr_rng = Random.State.make [| 41 |] in
  let arrivals =
    Array.map
      (fun trace ->
        List.map
          (fun t -> Float.round (t *. grid) /. grid)
          (Workload.Generators.poisson_arrivals ~rng:arr_rng ~trace))
      traces
  in
  let assignment = Rod.Rod_algorithm.place problem in
  let config =
    { Dynamic.Controller.default_config with Dynamic.Controller.samples = 256; cooldown = 2. }
  in
  let ctl = Dynamic.Controller.create ~config problem ~assignment in
  let metrics, events =
    run_dsim
      ~dynamic:(Dynamic.Controller.engine_config ctl)
      ~config:{ Engine.default_config with seed = 17; warmup = 1. }
      ~arrivals ~assignment ~caps:problem.Rod.Problem.caps
      ~until:(float_of_int horizon) graph
  in
  Alcotest.(check bool) "controller migrated" true (metrics.Sim_metrics.migrations > 0);
  let b = Buffer.create 4096 in
  Buffer.add_string b (Dynamic.Controller.decisions_json ctl);
  add_dsim b metrics ~events;
  check_digest "dsim controller"
    ~expected:"1b0fb4634cf71107d6db1ba96f4d4c9b" b

(* --- Spe.Dist_executor ---------------------------------------------- *)

let packet ~ts ~bytes ~proto ~k =
  Tuple.make ~ts
    [ ("bytes", Value.Int bytes); ("proto", Value.Str proto); ("k", Value.Int k) ]

(* Stream 0 feeds a filter (op 0) and the join's left side (op 2);
   stream 1 feeds the join's right side and a distinct sink (op 4);
   op 1 aggregates the filter's output and op 3 unions it with the
   join. *)
let spe_network () =
  Network.create ~n_inputs:2
    ~ops:
      [
        (Sop.filter (fun t -> Tuple.number t "bytes" > 300.), [ Graph.Sys_input 0 ]);
        ( Sop.aggregate ~window:1. ~group_by:"proto"
            [ ("n", Sop.Count); ("volume", Sop.Sum "bytes") ],
          [ Graph.Op_output 0 ] );
        ( Sop.equi_join ~window:0.25 ~left_key:"k" ~right_key:"k" (),
          [ Graph.Sys_input 0; Graph.Sys_input 1 ] );
        (Sop.union ~arity:2 (), [ Graph.Op_output 1; Graph.Op_output 2 ]);
        (Sop.distinct ~window:0.5 ~key:"k" (), [ Graph.Sys_input 1 ]);
      ]
    ()

let spe_inputs ~seed ~n =
  let rng = Random.State.make [| seed |] in
  let protos = [| "tcp"; "udp"; "icmp" |] in
  let stream fixed =
    List.map
      (fun ts ->
        packet ~ts
          ~bytes:(Random.State.int rng 1000)
          ~proto:protos.(Random.State.int rng 3)
          ~k:(Random.State.int rng 4))
      (grid_times rng ~n ~span:5.5 ~fixed)
  in
  (* 1.0 is a scripted migration, 1.25 its handoff, 3.0 the crash. *)
  [| stream [ 1.; 1.; 1.25; 3.; 0.5 ]; stream [ 1.25; 1.; 3.; 3. ] |]

let add_value b = function
  | Value.Int i -> Printf.bprintf b "i%d" i
  | Value.Float f -> Printf.bprintf b "f%h" f
  | Value.Str s -> Printf.bprintf b "s%S" s

let add_spe b (r : Dist.result) =
  List.iter
    (fun (op, (t : Tuple.t)) ->
      Printf.bprintf b "%d %h" op t.Tuple.ts;
      Array.iter
        (fun (name, v) ->
          Printf.bprintf b " %s=" name;
          add_value b v)
        t.Tuple.fields;
      Buffer.add_char b '\n')
    r.Dist.outputs;
  add_floats b (Obs.Samples.to_array r.Dist.latencies);
  add_floats b r.Dist.utilization;
  Printf.bprintf b "%d %d %d %d\n" r.Dist.arrivals r.Dist.backlog r.Dist.lost
    r.Dist.migrations;
  Array.iter
    (fun (s : Spe.Executor.op_run_stat) ->
      add_ints b s.Spe.Executor.consumed;
      Printf.bprintf b "%d %d\n" s.Spe.Executor.emitted s.Spe.Executor.pairs)
    r.Dist.op_stats

let spe_cost op idx = 0.004 +. (0.001 *. float_of_int op) +. (0.0005 *. float_of_int idx)

let test_spe_ties_migrations_faults () =
  let faults =
    [
      Fault.Crash { node = 2; at = 3.; recovery = [| 0; 1; 0; 1; 0 |] };
      Fault.Slowdown { node = 1; from_ = 0.5; until_ = 2.; factor = 0.25 };
      Fault.Jitter { from_ = 1.5; until_ = 4.; extra = 1. /. 64. };
    ]
  in
  let r =
    Dist.run ~network:(spe_network ()) ~assignment:[| 0; 1; 2; 0; 2 |]
      ~caps:(Vec.of_list [ 1.; 0.8; 1.2 ])
      ~cost:spe_cost ~inputs:(spe_inputs ~seed:21 ~n:220)
      ~config:{ Dist.default_config with warmup = 0.25; faults }
      ~migrations:[ (1., [ (2, 1) ]); (2., [ (0, 2); (3, 1) ]); (3., [ (4, 1) ]) ]
      ~timing:
        { Dist.drain_delay = 0.25; handoff_delay = 0.5;
          state_delay = (fun op -> 0.0625 *. float_of_int op) }
      ~until:6. ()
  in
  Alcotest.(check bool) "migrated" true (r.Dist.migrations >= 3);
  Alcotest.(check bool) "lost work in the crash" true (r.Dist.lost > 0);
  let b = Buffer.create 4096 in
  add_spe b r;
  check_digest "spe ties/migrations/faults"
    ~expected:"de99210945836d14ab7a82abc2fcc07d" b

let test_spe_plain () =
  let r =
    Dist.run ~network:(spe_network ()) ~assignment:[| 0; 0; 1; 1; 0 |]
      ~caps:(Vec.of_list [ 1.; 1. ])
      ~cost:spe_cost ~inputs:(spe_inputs ~seed:4 ~n:400) ~until:5.75 ()
  in
  let b = Buffer.create 4096 in
  add_spe b r;
  check_digest "spe plain"
    ~expected:"552bdbc2a68164e58f778d28f382519e" b

let suite =
  [
    Alcotest.test_case "dsim ties, migrations, faults" `Quick
      test_dsim_ties_migrations_faults;
    Alcotest.test_case "dsim shed_above" `Quick test_dsim_shed;
    Alcotest.test_case "dsim controller" `Quick test_dsim_controller;
    Alcotest.test_case "spe ties, migrations, faults" `Quick
      test_spe_ties_migrations_faults;
    Alcotest.test_case "spe plain" `Quick test_spe_plain;
  ]
