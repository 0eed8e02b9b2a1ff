(* Tests of the discrete-event simulator: event queue, single-operator
   calibration, selectivity, joins, overload behaviour and the
   feasibility probe. *)

module Vec = Linalg.Vec
module Trace = Workload.Trace
module Generators = Workload.Generators
module Engine = Dsim.Engine
module Probe = Dsim.Probe
module Sim_metrics = Dsim.Sim_metrics
module Event_queue = Dsim.Event_queue

let approx eps = Alcotest.float eps

let test_event_queue_ordering () =
  let q = Event_queue.create () in
  Event_queue.push q ~time:3. "c";
  Event_queue.push q ~time:1. "a";
  Event_queue.push q ~time:2. "b";
  Event_queue.push q ~time:1. "a2";
  let order = ref [] in
  while not (Event_queue.is_empty q) do
    order := Event_queue.take q :: !order
  done;
  Alcotest.(check (list string)) "time then insertion order"
    [ "a"; "a2"; "b"; "c" ] (List.rev !order);
  Alcotest.(check bool) "empty after drain" true (Event_queue.is_empty q)

let test_event_queue_many () =
  let q = Event_queue.create () in
  let rng = Random.State.make [| 8 |] in
  for i = 0 to 999 do
    Event_queue.push q ~time:(Random.State.float rng 100.) i
  done;
  let last = ref neg_infinity in
  let sorted = ref true in
  let count = ref 0 in
  while not (Event_queue.is_empty q) do
    let t = Event_queue.top_time q in
    ignore (Event_queue.take q);
    if t < !last then sorted := false;
    last := t;
    incr count
  done;
  Alcotest.(check bool) "nondecreasing" true !sorted;
  Alcotest.(check int) "all popped" 1000 !count

(* Random interleavings of [push] and [take] over heavily duplicated
   times come out in (time, insertion) order: every [take] returns the
   least pending event under that order.  The model is a map keyed by
   (time, id), ids counting insertions, so each step costs O(log n). *)
module Pending = Map.Make (struct
  type t = float * int

  let compare (t1, i1) (t2, i2) =
    match Float.compare t1 t2 with 0 -> Int.compare i1 i2 | c -> c
end)

let prop_event_queue_stable_order =
  QCheck.Test.make ~count:300 ~name:"event queue: (time, insertion) order"
    QCheck.(list (option (int_bound 4)))
    (fun ops ->
      let q = Event_queue.create () in
      let pending = ref Pending.empty in
      let next_id = ref 0 in
      let take_ok () =
        match Pending.min_binding_opt !pending with
        | None -> true
        | Some (((t, id) as first), ()) ->
          let top = Event_queue.top_time q in
          let got = Event_queue.take q in
          pending := Pending.remove first !pending;
          top = t && got = id
      in
      List.for_all
        (function
          | Some slot ->
            let time = float_of_int slot /. 2. in
            Event_queue.push q ~time !next_id;
            pending := Pending.add (time, !next_id) () !pending;
            incr next_id;
            true
          | None -> take_ok ())
        ops
      && List.for_all (fun _ -> take_ok ()) (Pending.bindings !pending)
      && Event_queue.is_empty q
      && Event_queue.length q = 0)

let test_event_queue_empty () =
  let q : int Event_queue.t = Event_queue.create () in
  Alcotest.(check (float 0.)) "top_time of empty" infinity (Event_queue.top_time q);
  Alcotest.check_raises "take on empty" (Invalid_argument "Event_queue.take: empty queue")
    (fun () -> ignore (Event_queue.take q));
  Event_queue.push q ~time:1. 7;
  Alcotest.(check int) "one event" 7 (Event_queue.take q);
  Alcotest.(check (float 0.)) "empty again" infinity (Event_queue.top_time q)

(* One operator of cost c at rate r: utilization = c*r, latency = c at
   low load (deterministic arrivals never queue). *)
let single_op_graph cost sel =
  Query.Graph.create ~n_inputs:1
    ~ops:[ (Query.Op.filter ~cost ~sel (), [ Query.Graph.Sys_input 0 ]) ]
    ()

let run_constant ?(seed = 1) ?(cap = 1.) ~graph ~assignment ~rates ~duration () =
  let caps = Vec.create (1 + Array.fold_left max 0 assignment) cap in
  let arrivals =
    Array.map
      (fun rate ->
        Generators.deterministic_arrivals
          ~trace:(Trace.create ~dt:duration [| rate |]))
      rates
  in
  Engine.run ~graph ~assignment ~caps ~arrivals
    ~config:{ Engine.default_config with seed; warmup = 0. }
    ~until:duration ()

let test_single_op_utilization () =
  let graph = single_op_graph 0.002 1. in
  let m =
    run_constant ~graph ~assignment:[| 0 |] ~rates:[| 100. |] ~duration:50. ()
  in
  Alcotest.check (approx 0.01) "utilization = cost*rate" 0.2
    (Sim_metrics.max_utilization m);
  Alcotest.(check int) "arrivals" 5000 m.Sim_metrics.arrivals;
  Alcotest.(check int) "all processed" 5000 m.Sim_metrics.items_processed;
  Alcotest.(check int) "sel 1 passes everything" 5000 m.Sim_metrics.outputs;
  Alcotest.check (approx 1e-6) "latency = service time" 0.002
    (Sim_metrics.mean_latency m);
  Alcotest.(check int) "no backlog" 0 m.Sim_metrics.backlog

let test_capacity_scales_service () =
  let graph = single_op_graph 0.002 1. in
  let m =
    run_constant ~cap:2. ~graph ~assignment:[| 0 |] ~rates:[| 100. |]
      ~duration:50. ()
  in
  Alcotest.check (approx 0.01) "double capacity halves utilization" 0.1
    (Sim_metrics.max_utilization m);
  Alcotest.check (approx 1e-6) "and halves latency" 0.001
    (Sim_metrics.mean_latency m)

let test_selectivity_thins_output () =
  let graph = single_op_graph 0.0001 0.3 in
  let m =
    run_constant ~graph ~assignment:[| 0 |] ~rates:[| 200. |] ~duration:50. ()
  in
  let expected = 0.3 *. float_of_int m.Sim_metrics.arrivals in
  Alcotest.(check bool)
    (Printf.sprintf "outputs %d near %.0f" m.Sim_metrics.outputs expected)
    true
    (abs_float (float_of_int m.Sim_metrics.outputs -. expected)
    < 0.1 *. expected)

let test_overload_builds_backlog () =
  let graph = single_op_graph 0.02 1. in
  (* Rate 100 x cost 0.02 = demand 2.0 > capacity 1. *)
  let m =
    run_constant ~graph ~assignment:[| 0 |] ~rates:[| 100. |] ~duration:20. ()
  in
  Alcotest.(check bool) "utilization saturates" true
    (Sim_metrics.max_utilization m > 0.99);
  (* Half the work cannot be served: ~1000 tuples remain. *)
  Alcotest.(check bool)
    (Printf.sprintf "backlog %d large" m.Sim_metrics.backlog)
    true
    (m.Sim_metrics.backlog > 800)

let test_chain_latency_accumulates () =
  let graph = Query.Builder.chain ~n_ops:3 ~cost:0.001 ~sel:1. () in
  let m =
    run_constant ~graph ~assignment:[| 0; 0; 0 |] ~rates:[| 50. |] ~duration:20. ()
  in
  Alcotest.check (approx 2e-4) "three stages of 1 ms" 0.003
    (Sim_metrics.mean_latency m)

let test_network_delay_added () =
  let graph = Query.Builder.chain ~n_ops:2 ~cost:0.001 ~sel:1. () in
  let same = run_constant ~graph ~assignment:[| 0; 0 |] ~rates:[| 10. |] ~duration:20. () in
  let split = run_constant ~graph ~assignment:[| 0; 1 |] ~rates:[| 10. |] ~duration:20. () in
  let diff = Sim_metrics.mean_latency split -. Sim_metrics.mean_latency same in
  Alcotest.check (approx 1e-4) "one network hop"
    Engine.default_config.Engine.net_delay diff

(* Join calibration: two streams at rates ru, rv with window w.  Each
   arriving u-tuple scans ~rv*w candidates, so the join's CPU demand is
   c * w * ru * rv and its output rate s * w * ru * rv (Example 3). *)
let test_join_load_and_output () =
  let w = 0.5 and c = 1e-4 and s = 0.2 in
  let ru = 40. and rv = 30. in
  let graph =
    Query.Graph.create ~n_inputs:2
      ~ops:
        [
          ( Query.Op.join ~window:w ~cost_per_pair:c ~sel:s (),
            [ Query.Graph.Sys_input 0; Query.Graph.Sys_input 1 ] );
        ]
      ()
  in
  let m =
    run_constant ~graph ~assignment:[| 0 |] ~rates:[| ru; rv |] ~duration:50. ()
  in
  let expected_util = c *. w *. ru *. rv in
  Alcotest.(check bool)
    (Printf.sprintf "join utilization %.4f near %.4f"
       (Sim_metrics.max_utilization m) expected_util)
    true
    (abs_float (Sim_metrics.max_utilization m -. expected_util)
    < 0.15 *. expected_util);
  let expected_outputs = s *. w *. ru *. rv *. 50. in
  Alcotest.(check bool)
    (Printf.sprintf "join outputs %d near %.0f" m.Sim_metrics.outputs
       expected_outputs)
    true
    (abs_float (float_of_int m.Sim_metrics.outputs -. expected_outputs)
    < 0.15 *. expected_outputs)

let test_load_shedding_bounds_latency () =
  (* Demand 2x capacity: lossless queues blow up; a 20-item bound sheds
     roughly half the tuples and keeps latency bounded. *)
  let graph = single_op_graph 0.02 1. in
  let caps = Vec.of_list [ 1. ] in
  let arrivals =
    [|
      Generators.deterministic_arrivals
        ~trace:(Trace.create ~dt:20. [| 100. |]);
    |]
  in
  let run shed_above =
    Engine.run ~graph ~assignment:[| 0 |] ~caps ~arrivals
      ~config:{ Engine.default_config with shed_above } ~until:20. ()
  in
  let lossless = run None in
  let shedding = run (Some 20) in
  Alcotest.(check int) "lossless drops nothing" 0 lossless.Sim_metrics.dropped;
  Alcotest.(check bool)
    (Printf.sprintf "shed roughly half (%d of %d)" shedding.Sim_metrics.dropped
       shedding.Sim_metrics.arrivals)
    true
    (abs (shedding.Sim_metrics.dropped - 1000) < 150);
  Alcotest.(check bool) "shedding bounds the queue" true
    (shedding.Sim_metrics.backlog <= 21);
  Alcotest.(check bool)
    (Printf.sprintf "latency bounded (%.2fs vs %.2fs)"
       (Sim_metrics.p95_latency shedding)
       (Sim_metrics.p95_latency lossless))
    true
    (Sim_metrics.p95_latency shedding < 0.5
    && Sim_metrics.p95_latency lossless > 2.);
  (* Shedding keeps the node saturated: it drops load, not throughput. *)
  Alcotest.(check bool) "still saturated" true
    (Sim_metrics.max_utilization shedding > 0.99)

let test_heterogeneous_capacity_engine () =
  (* The same work on a half-speed node takes twice the wall time. *)
  let graph = single_op_graph 0.004 1. in
  let arrivals =
    [| Generators.deterministic_arrivals ~trace:(Trace.create ~dt:20. [| 50. |]) |]
  in
  let slow =
    Engine.run ~graph ~assignment:[| 0 |] ~caps:(Vec.of_list [ 0.5 ])
      ~arrivals ~until:20. ()
  in
  Alcotest.check (approx 0.01) "slow node utilization doubles" 0.4
    (Sim_metrics.max_utilization slow);
  Alcotest.check (approx 1e-6) "slow node latency doubles" 0.008
    (Sim_metrics.mean_latency slow)

let test_warmup_clips_stats () =
  let graph = single_op_graph 0.002 1. in
  let arrivals =
    [| Generators.deterministic_arrivals ~trace:(Trace.create ~dt:20. [| 100. |]) |]
  in
  let m =
    Engine.run ~graph ~assignment:[| 0 |] ~caps:(Vec.of_list [ 1. ]) ~arrivals
      ~config:{ Engine.default_config with warmup = 10. }
      ~until:20. ()
  in
  (* Only the second half is measured: ~1000 arrivals, same rates. *)
  Alcotest.(check bool)
    (Printf.sprintf "arrivals measured after warmup only (%d)"
       m.Sim_metrics.arrivals)
    true
    (abs (m.Sim_metrics.arrivals - 1000) <= 1);
  Alcotest.check (approx 0.01) "utilization unaffected by warmup" 0.2
    (Sim_metrics.max_utilization m)

let test_probe_agrees_with_analysis () =
  let graph = Query.Builder.example2 () in
  let problem =
    Rod.Problem.of_graph graph ~caps:(Rod.Problem.homogeneous_caps ~n:2 ~cap:1.)
  in
  (* Scale Example 2 so costs are per-second CPU fractions: divide
     everything by 1000 (cost 4 cycles -> 4 ms). *)
  ignore problem;
  let graph_ms =
    Query.Builder.example1 ~c1:4e-3 ~c2:6e-3 ~c3:9e-3 ~c4:4e-3 ~s1:1. ~s3:0.5
  in
  let assignment = [| 0; 1; 1; 0 |] in
  let caps = Vec.of_list [ 1.; 1. ] in
  (* Plan (a): node0 4e-3 r1 + 2e-3 r2 <= 1; node1 6e-3 r1 + 9e-3 r2 <= 1. *)
  let feasible_point = Vec.of_list [ 50.; 50. ] in
  let infeasible_point = Vec.of_list [ 160.; 30. ] in
  let v1 =
    Probe.probe_point ~duration:10. ~graph:graph_ms ~assignment ~caps
      ~rates:feasible_point ()
  in
  Alcotest.(check bool) "interior point simulates feasible" true v1.Probe.feasible;
  let v2 =
    Probe.probe_point ~duration:10. ~graph:graph_ms ~assignment ~caps
      ~rates:infeasible_point ()
  in
  Alcotest.(check bool) "exterior point simulates infeasible" false
    v2.Probe.feasible

(* Arrival times are checked at the edge: a NaN, infinite or negative
   time is rejected with the stream and list index that hold it. *)
let test_rejects_bad_arrival_times () =
  let graph = single_op_graph 0.002 1. in
  let run times =
    Engine.run ~graph ~assignment:[| 0 |] ~caps:(Vec.of_list [ 1. ])
      ~arrivals:[| times |] ~until:10. ()
  in
  List.iter
    (fun (bad, shown) ->
      Alcotest.check_raises (Printf.sprintf "time %s" shown)
        (Invalid_argument
           (Printf.sprintf
              "Engine.run: stream 0 arrival 2 has time %s (must be finite and >= 0)" shown))
        (fun () -> ignore (run [ 1.; 0.5; bad ])))
    [ (Float.nan, "nan"); (Float.infinity, "inf"); (-1., "-1") ];
  (* Any order is accepted. *)
  let m = run [ 3.; 1.; 2.; 1. ] in
  Alcotest.(check int) "unsorted arrivals all processed" 4 m.Sim_metrics.items_processed

(* Timing values are checked once, in the kernel: a NaN, infinite or
   negative delay, a bad controller interval or a non-finite state
   transfer is rejected with the field that holds it. *)
let test_rejects_bad_timing () =
  let graph = Query.Builder.chain ~n_ops:2 ~cost:0.001 ~sel:1. () in
  let dynamic =
    {
      Engine.interval = 1.;
      migration_delay = 0.1;
      drain_delay = 0.05;
      state_delay = (fun _ -> 0.);
      decide =
        (fun ~time:_ ~utilization:_ ~op_cpu:_ ~rates:_ ~assignment ->
          [ (0, 1 - assignment.(0)) ]);
    }
  in
  let run ?(config = Engine.default_config) dynamic =
    Engine.run ~graph ~assignment:[| 0; 1 |] ~caps:(Vec.of_list [ 1.; 1. ])
      ~arrivals:[| List.init 1000 (fun i -> float_of_int i /. 100.) |]
      ~config ~dynamic ~until:11. ()
  in
  let nan = Float.nan and default = Engine.default_config in
  List.iter
    (fun (what, config, dynamic) ->
      Alcotest.check_raises what (Invalid_argument ("Engine.run: " ^ what)) (fun () ->
          ignore (run ~config dynamic)))
    [
      ("net_delay = nan (must be finite and >= 0)", { default with net_delay = nan }, dynamic);
      ("net_delay = -1 (must be finite and >= 0)", { default with net_delay = -1. }, dynamic);
      ("drain_delay = nan (must be finite and >= 0)", default, { dynamic with drain_delay = nan });
      ( "migration_delay = inf (must be finite and >= 0)",
        default,
        { dynamic with migration_delay = Float.infinity } );
      ("interval = nan (must be finite and > 0)", default, { dynamic with interval = nan });
      ("interval = 0 (must be finite and > 0)", default, { dynamic with interval = 0. });
      ( "state_delay 1 = nan (must be finite)",
        default,
        { dynamic with state_delay = (fun op -> if op = 1 then nan else 0.) } );
    ];
  (* A negative state transfer is clamped to zero, and the run goes on. *)
  let m = run { dynamic with state_delay = (fun _ -> -1.) } in
  Alcotest.(check int) "all arrivals" 1000 m.Sim_metrics.arrivals;
  Alcotest.(check bool) "migrated" true (m.Sim_metrics.migrations > 0)

let test_simulate_traces () =
  let graph = Query.Builder.chain ~n_ops:2 ~cost:0.001 ~sel:1. () in
  let trace = Trace.create ~dt:1. (Array.make 10 50.) in
  let rng = Random.State.make [| 6 |] in
  let m =
    Probe.simulate_traces ~rng ~graph ~assignment:[| 0; 1 |]
      ~caps:(Vec.of_list [ 1.; 1. ])
      ~traces:[| trace |] ()
  in
  Alcotest.(check bool)
    (Printf.sprintf "roughly 500 arrivals (%d)" m.Sim_metrics.arrivals)
    true
    (abs (m.Sim_metrics.arrivals - 500) < 120);
  (* Each arrival is processed by both stages eventually; under light
     load outputs track arrivals closely (a few may be in flight). *)
  Alcotest.(check bool) "outputs close to arrivals" true
    (abs (m.Sim_metrics.outputs - m.Sim_metrics.arrivals) <= 5);
  Alcotest.(check bool) "two work items per arrival" true
    (abs (m.Sim_metrics.items_processed - (2 * m.Sim_metrics.arrivals)) <= 10)

let prop_conservation_single_op =
  QCheck.Test.make ~name:"tuple conservation (single op)" ~count:20
    (QCheck.make QCheck.Gen.(pair (10 -- 200) (1 -- 30)))
    (fun (rate, seed) ->
      let graph = single_op_graph 0.001 1. in
      let m =
        run_constant ~seed ~graph ~assignment:[| 0 |]
          ~rates:[| float_of_int rate |] ~duration:5. ()
      in
      m.Sim_metrics.arrivals
      = m.Sim_metrics.items_processed + m.Sim_metrics.backlog)

let suite =
  [
    Alcotest.test_case "event queue ordering" `Quick test_event_queue_ordering;
    Alcotest.test_case "event queue stress" `Quick test_event_queue_many;
    Alcotest.test_case "event queue empty" `Quick test_event_queue_empty;
    QCheck_alcotest.to_alcotest ~rand:(Test_rand.get ())
      prop_event_queue_stable_order;
    Alcotest.test_case "single-op utilization" `Quick test_single_op_utilization;
    Alcotest.test_case "capacity scales service" `Quick test_capacity_scales_service;
    Alcotest.test_case "selectivity thins output" `Quick test_selectivity_thins_output;
    Alcotest.test_case "overload builds backlog" `Quick test_overload_builds_backlog;
    Alcotest.test_case "chain latency accumulates" `Quick test_chain_latency_accumulates;
    Alcotest.test_case "network delay added" `Quick test_network_delay_added;
    Alcotest.test_case "join load and output" `Quick test_join_load_and_output;
    Alcotest.test_case "heterogeneous capacity" `Quick
      test_heterogeneous_capacity_engine;
    Alcotest.test_case "warmup clips stats" `Quick test_warmup_clips_stats;
    Alcotest.test_case "load shedding bounds latency" `Quick
      test_load_shedding_bounds_latency;
    Alcotest.test_case "probe agrees with analysis" `Slow test_probe_agrees_with_analysis;
    Alcotest.test_case "simulate traces" `Quick test_simulate_traces;
    Alcotest.test_case "bad arrival times rejected" `Quick test_rejects_bad_arrival_times;
    Alcotest.test_case "bad timing values rejected" `Quick test_rejects_bad_timing;
    QCheck_alcotest.to_alcotest ~rand:(Test_rand.get ())
      prop_conservation_single_op;
  ]
