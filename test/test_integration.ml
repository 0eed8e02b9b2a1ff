(* Integration tests: whole pipelines spanning graph construction, load
   modelling, placement, analytic volume estimation and discrete-event
   execution. *)

module Vec = Linalg.Vec
module Problem = Rod.Problem
module Plan = Rod.Plan
module Trace = Workload.Trace

(* The central consistency property of the whole reproduction: the
   analytic feasibility test (L^n R <= C) and the simulator agree about
   which rate points a placed system can sustain. *)
let test_analytic_vs_simulated_feasibility () =
  let rng = Random.State.make [| 123 |] in
  let graph = Query.Randgraph.generate_trees ~rng ~n_inputs:2 ~ops_per_tree:6 in
  let caps = Problem.homogeneous_caps ~n:3 ~cap:1. in
  let problem = Problem.of_graph graph ~caps in
  let plan = Rod.Rod_algorithm.plan problem in
  let assignment = Plan.assignment plan in
  let l = Problem.total_coefficients problem in
  let c_total = Problem.total_capacity problem in
  (* Points on the balanced ray at 60%, 80% of the *plan's* boundary,
     plus two clearly infeasible ones; skip points near the boundary
     where scheduling noise could flip the verdict. *)
  let ray phi = Vec.init 2 (fun k -> phi *. c_total /. (2. *. l.(k))) in
  let boundary =
    Feasible.Volume.max_scale ~ln:(Plan.node_loads plan) ~caps
      ~direction:(ray 1.)
  in
  let agreement = ref 0 and total = ref 0 in
  List.iter
    (fun phi ->
      let rates = ray (phi *. boundary) in
      let analytic = Plan.is_feasible_at plan ~rates in
      let v =
        Dsim.Probe.probe_point ~duration:8. ~graph ~assignment ~caps ~rates ()
      in
      incr total;
      if analytic = v.Dsim.Probe.feasible then incr agreement)
    [ 0.5; 0.8; 1.3; 1.6 ];
  Alcotest.(check int) "analytic and simulated verdicts agree" !total !agreement

(* End-to-end: wider query graphs make ROD approach the ideal. *)
let test_rod_ratio_grows_with_width () =
  let ratio ops_per_tree =
    let rng = Random.State.make [| 55 |] in
    let graph = Query.Randgraph.generate_trees ~rng ~n_inputs:3 ~ops_per_tree in
    let problem =
      Problem.of_graph graph ~caps:(Problem.homogeneous_caps ~n:6 ~cap:1.)
    in
    (Plan.volume_qmc ~samples:4096 (Rod.Rod_algorithm.plan problem))
      .Feasible.Volume.ratio
  in
  let narrow = ratio 4 and wide = ratio 40 in
  Alcotest.(check bool)
    (Printf.sprintf "wide (%.3f) much better than narrow (%.3f)" wide narrow)
    true
    (wide > narrow +. 0.2)

(* Feasible ratio measured by probing the simulator at QMC points
   should approximate the analytic QMC ratio. *)
let test_simulated_feasible_fraction_matches_qmc () =
  let rng = Random.State.make [| 77 |] in
  let graph = Query.Randgraph.generate_trees ~rng ~n_inputs:2 ~ops_per_tree:5 in
  let caps = Problem.homogeneous_caps ~n:2 ~cap:1. in
  let problem = Problem.of_graph graph ~caps in
  let plan = Rod.Rod_algorithm.plan problem in
  let analytic = (Plan.volume_qmc ~samples:8192 plan).Feasible.Volume.ratio in
  let l = Problem.total_coefficients problem in
  let c_total = Problem.total_capacity problem in
  let points =
    Array.init 24 (fun i ->
        Feasible.Simplex.sample_ideal ~l ~c_total
          ~cube_point:(Feasible.Halton.point ~dim:2 i)
          ())
  in
  let simulated =
    Dsim.Probe.feasible_fraction ~duration:6. ~graph
      ~assignment:(Plan.assignment plan) ~caps ~points ()
  in
  Alcotest.(check bool)
    (Printf.sprintf "simulated %.2f within 0.2 of analytic %.2f" simulated
       analytic)
    true
    (abs_float (simulated -. analytic) <= 0.2)

(* A bursty trace whose mean is safely inside the feasible set keeps
   latency bounded under ROD; scaling the same trace past the boundary
   must blow the backlog up. *)
let test_latency_stable_inside_boundary () =
  let rng = Random.State.make [| 31337 |] in
  let graph = Query.Randgraph.generate_trees ~rng ~n_inputs:2 ~ops_per_tree:8 in
  let caps = Problem.homogeneous_caps ~n:3 ~cap:1. in
  let problem = Problem.of_graph graph ~caps in
  let plan = Rod.Rod_algorithm.plan problem in
  let assignment = Plan.assignment plan in
  let l = Problem.total_coefficients problem in
  let c_total = Problem.total_capacity problem in
  let traces phi =
    Array.init 2 (fun k ->
        let mean = phi *. c_total /. (2. *. l.(k)) in
        Trace.scale mean
          (Trace.normalize
             (Workload.Bmodel.trace ~rng ~bias:0.6 ~levels:5 ~mean_rate:1.
                ~dt:1.)))
  in
  let run phi =
    Dsim.Probe.simulate_traces ~graph ~assignment ~caps ~traces:(traces phi) ()
  in
  let calm = run 0.4 in
  let storm = run 2.0 in
  Alcotest.(check bool) "calm run keeps backlog negligible" true
    (calm.Dsim.Sim_metrics.backlog < 50);
  Alcotest.(check bool)
    (Printf.sprintf "overloaded run piles up work (%d vs %d)"
       storm.Dsim.Sim_metrics.backlog calm.Dsim.Sim_metrics.backlog)
    true
    (storm.Dsim.Sim_metrics.backlog > 10 * (calm.Dsim.Sim_metrics.backlog + 1))

(* The clustering pipeline end to end: under heavy communication cost,
   the clustered plan's communication-inclusive feasible volume beats
   the communication-blind plan's. *)
let test_clustering_pipeline_beats_blind_rod () =
  let rng = Random.State.make [| 2 |] in
  let graph =
    Query.Randgraph.generate ~rng
      {
        Query.Randgraph.default with
        n_inputs = 2;
        ops_per_tree = 10;
        xfer_cost = 2e-3;
      }
  in
  let model = Query.Load_model.derive graph in
  let caps = Problem.homogeneous_caps ~n:3 ~cap:1. in
  let problem = Problem.of_model model ~caps in
  let volume assignment =
    let ln = Rod.Clustering.effective_node_loads ~model ~n_nodes:3 ~assignment in
    (Feasible.Volume.ratio_qmc ~ln ~caps ~samples:4096 ()).Feasible.Volume.volume
  in
  let blind = volume (Rod.Rod_algorithm.place problem) in
  let _, clustered_assignment = Rod.Clustering.select_best ~model ~caps () in
  let clustered = volume clustered_assignment in
  Alcotest.(check bool)
    (Printf.sprintf "clustered %.3g >= blind %.3g" clustered blind)
    true
    (clustered >= blind *. 0.999)

(* Nonlinear pipeline: linearize, place, and verify the plan's analytic
   feasibility against direct nonlinear evaluation on many points. *)
let test_nonlinear_pipeline_consistency () =
  let graph = Query.Builder.example3 () in
  let model = Query.Load_model.derive graph in
  let caps = Problem.homogeneous_caps ~n:2 ~cap:50. in
  let problem = Problem.of_model model ~caps in
  let plan = Rod.Rod_algorithm.plan problem in
  let ln = Plan.node_loads plan in
  let rng = Random.State.make [| 3 |] in
  for _ = 1 to 50 do
    let sys_rates = Vec.init 2 (fun _ -> Random.State.float rng 8.) in
    let vars = Query.Load_model.eval_vars model ~sys_rates in
    (* Node loads computed through the linearized matrix must equal the
       sum of true operator loads per node. *)
    let direct = Array.make 2 0. in
    Array.iteri
      (fun j node ->
        direct.(node) <-
          direct.(node) +. Query.Load_model.op_load_at model ~sys_rates j)
      (Plan.assignment plan);
    for i = 0 to 1 do
      let linear = Vec.dot (Linalg.Mat.row ln i) vars in
      if abs_float (linear -. direct.(i)) > 1e-9 then
        Alcotest.failf "node %d: linearized %.6f <> direct %.6f" i linear
          direct.(i)
    done
  done

(* Differential check: at any feasible rate point, per-node utilization
   predicted by the linear algebra must match what the DES measures. *)
let prop_analytic_utilization_matches_des =
  QCheck.Test.make ~name:"analytic utilization = simulated utilization" ~count:8
    (QCheck.make QCheck.Gen.(pair (0 -- 1000) (1 -- 3)))
    (fun (seed, d) ->
      let rng = Random.State.make [| seed |] in
      let graph = Query.Randgraph.generate_trees ~rng ~n_inputs:d ~ops_per_tree:5 in
      let caps = Problem.homogeneous_caps ~n:2 ~cap:1. in
      let problem = Problem.of_graph graph ~caps in
      let plan = Rod.Rod_algorithm.plan problem in
      (* A strictly interior point (60% of the ray boundary). *)
      let direction =
        Vec.init d (fun k -> 1. /. (Problem.total_coefficients problem).(k))
      in
      let t =
        Feasible.Volume.max_scale ~ln:(Plan.node_loads plan) ~caps ~direction
      in
      let rates = Vec.scale (0.6 *. t) direction in
      let predicted = Plan.utilizations plan ~rates in
      let arrivals =
        Array.map
          (fun rate ->
            Workload.Generators.deterministic_arrivals
              ~trace:(Workload.Trace.create ~dt:30. [| rate |]))
          rates
      in
      let metrics =
        Dsim.Engine.run ~graph ~assignment:(Plan.assignment plan) ~caps
          ~arrivals
          ~config:{ Dsim.Engine.default_config with warmup = 2. }
          ~until:30. ()
      in
      let measured = metrics.Dsim.Sim_metrics.utilization in
      (* Bernoulli selectivity draws add sampling noise; 6 points of
         utilization is ample slack for a 28 s window. *)
      abs_float (predicted.(0) -. measured.(0)) < 0.06
      && abs_float (predicted.(1) -. measured.(1)) < 0.06)

let suite =
  [
    QCheck_alcotest.to_alcotest ~rand:(Test_rand.get ())
      prop_analytic_utilization_matches_des;
    Alcotest.test_case "analytic vs simulated feasibility" `Slow
      test_analytic_vs_simulated_feasibility;
    Alcotest.test_case "ROD ratio grows with graph width" `Quick
      test_rod_ratio_grows_with_width;
    Alcotest.test_case "simulated fraction matches QMC" `Slow
      test_simulated_feasible_fraction_matches_qmc;
    Alcotest.test_case "latency stable inside boundary" `Quick
      test_latency_stable_inside_boundary;
    Alcotest.test_case "clustering pipeline beats blind ROD" `Quick
      test_clustering_pipeline_beats_blind_rod;
    Alcotest.test_case "nonlinear pipeline consistency" `Quick
      test_nonlinear_pipeline_consistency;
  ]
