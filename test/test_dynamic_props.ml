(* Properties and pins of the rod.dynamic layer: the replanner's budget
   bound and acceptance gate, rollback identity on rejection, controller
   decision-log determinism across pool sizes and reruns (plus a golden
   fixture of the JSON log), and the drift-survival pin — the
   simulation where static ROD goes infeasible and the controller
   recovers a positive feasible-set margin within its move budget. *)

module Vec = Linalg.Vec
module Mat = Linalg.Mat
module Problem = Rod.Problem
module Margin = Dynamic.Margin
module Replanner = Dynamic.Replanner
module Controller = Dynamic.Controller

(* --- random instances --------------------------------------------- *)

(* Same family as test_placement_props: strictly positive coefficients,
   pairwise-distinct dyadic capacities (exact sums, no tie-break
   dependence on node numbering). *)
let instance_gen =
  QCheck.Gen.(
    let* m = 3 -- 10 in
    let* d = 2 -- 4 in
    let* n = 2 -- 5 in
    let* entries = array_size (return (m * d)) (float_range 0.05 1.) in
    let* rate_scale = float_range 0. 2. in
    let* budget = 0 -- 4 in
    let lo = Array.init m (fun j -> Array.sub entries (j * d) d) in
    let caps = Array.init n (fun i -> 1. +. (0.25 *. float_of_int (i + 1))) in
    return (lo, caps, rate_scale, budget))

let print_instance (lo, caps, rate_scale, budget) =
  Format.asprintf "lo = %a caps = %a rate_scale = %g budget = %d" Mat.pp
    (Mat.of_arrays lo) Vec.pp caps rate_scale budget

let arbitrary_instance = QCheck.make ~print:print_instance instance_gen

let problem_of (lo, caps) = Problem.create ~lo:(Mat.of_arrays lo) ~caps

(* A rate point stressing stream 0: at [rate_scale] ~ 1 the total load
   sits near capacity, so instances span comfortable, tight and
   infeasible regimes. *)
let stress_rates problem rate_scale =
  let d = Problem.dim problem in
  let l = Problem.total_coefficients problem in
  let c_total = Problem.total_capacity problem in
  Vec.init d (fun k ->
      let base = rate_scale *. c_total /. (float_of_int d *. l.(k)) in
      if k = 0 then 1.7 *. base else 0.8 *. base)

let replan_instance (lo, caps, rate_scale, budget) =
  let problem = problem_of (lo, caps) in
  let assignment = Rod.Rod_algorithm.place problem in
  let rates = stress_rates problem rate_scale in
  let cost_of j = 0.01 *. float_of_int (j mod 3) in
  let outcome =
    Replanner.replan ~samples:256 ~rates ~budget ~cost_of problem ~assignment
  in
  (problem, assignment, rates, budget, outcome)

(* --- replanner properties ----------------------------------------- *)

let prop_budget_respected =
  QCheck.Test.make ~name:"replanner never exceeds its budget" ~count:60
    arbitrary_instance (fun inst ->
      let problem, assignment, _, budget, o = replan_instance inst in
      let n = Problem.n_nodes problem in
      List.length o.Replanner.moves <= budget
      && List.for_all
           (fun (mv : Replanner.move) ->
             mv.Replanner.op >= 0
             && mv.Replanner.op < Problem.n_ops problem
             && mv.Replanner.to_node >= 0
             && mv.Replanner.to_node < n
             && mv.Replanner.to_node <> mv.Replanner.from_node)
           o.Replanner.moves
      &&
      (* The move list replays from the input assignment to the
         outcome's assignment. *)
      let replayed = Array.copy assignment in
      List.iter
        (fun (mv : Replanner.move) ->
          replayed.(mv.Replanner.op) <- mv.Replanner.to_node)
        o.Replanner.moves;
      replayed = o.Replanner.assignment)

let prop_accepted_never_worse =
  QCheck.Test.make
    ~name:"accepted replans never shrink ratio or margin; rejected ones \
           change nothing"
    ~count:60 arbitrary_instance (fun inst ->
      let _, assignment, _, _, o = replan_instance inst in
      if o.Replanner.accepted then
        o.Replanner.ratio_after >= o.Replanner.ratio_before
        && o.Replanner.moves <> []
        &&
        match (o.Replanner.margin_before, o.Replanner.margin_after) with
        | Some before, Some after ->
          after.Margin.margin >= before.Margin.margin
        | _ -> false
      else
        o.Replanner.moves = []
        && o.Replanner.assignment = assignment
        && o.Replanner.ratio_after = o.Replanner.ratio_before)

let prop_input_not_mutated =
  QCheck.Test.make ~name:"replan leaves the input assignment intact"
    ~count:40 arbitrary_instance (fun inst ->
      let (lo, caps, rate_scale, budget) = inst in
      let problem = problem_of (lo, caps) in
      let assignment = Rod.Rod_algorithm.place problem in
      let saved = Array.copy assignment in
      let _ =
        Replanner.replan ~samples:256
          ~rates:(stress_rates problem rate_scale)
          ~budget
          ~cost_of:(fun _ -> 0.)
          problem ~assignment
      in
      assignment = saved)

(* --- controller determinism --------------------------------------- *)

(* A fixed drifting control scenario, replayed through the controller's
   [observe] loop directly (the engine's tick loop does exactly this):
   stream 0 ramps until the margin erodes, accepted moves are applied
   back to the "engine" assignment. *)
let drift_problem () =
  let rng = Random.State.make [| 7207 |] in
  let graph =
    Query.Randgraph.generate_trees ~rng ~n_inputs:2 ~ops_per_tree:12
  in
  Problem.of_graph graph ~caps:(Problem.homogeneous_caps ~n:4 ~cap:1.)

let controller_log ?pool () =
  let problem = drift_problem () in
  let assignment = Rod.Rod_algorithm.place problem in
  let d = Problem.dim problem in
  let l = Problem.total_coefficients problem in
  let c_total = Problem.total_capacity problem in
  let ctl =
    Controller.create ?pool
      ~config:{ Controller.default_config with Controller.samples = 512 }
      ~cost_of:(fun j -> 0.01 *. float_of_int (j mod 3))
      problem ~assignment
  in
  let engine_view = Array.copy assignment in
  for t = 1 to 24 do
    let s = float_of_int t /. 24. in
    let rates =
      Vec.init d (fun k ->
          let base = 0.6 *. c_total /. (float_of_int d *. l.(k)) in
          if k = 0 then (1. +. (1.9 *. s)) *. base
          else (1. -. (0.85 *. s)) *. base)
    in
    let moves =
      Controller.observe ctl ~time:(float_of_int t) ~rates
        ~assignment:engine_view
    in
    List.iter (fun (op, dest) -> engine_view.(op) <- dest) moves
  done;
  Controller.decisions_json ctl

let test_controller_pool_independent () =
  let reference = controller_log () in
  Alcotest.(check string) "rerun is byte-identical" reference
    (controller_log ());
  List.iter
    (fun ways ->
      let pool = Parallel.Pool.create ways in
      let log = controller_log ~pool () in
      Parallel.Pool.shutdown pool;
      Alcotest.(check string)
        (Printf.sprintf "%d-domain pool is byte-identical" ways)
        reference log)
    [ 1; 2; 4 ]

(* --- golden decision log ------------------------------------------ *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents)

let check_golden ~fixture actual =
  let path = Filename.concat "fixtures/dynamic" fixture in
  (* Mismatches land in the temp dir, never the CWD: running the test
     binary from the repo root must not litter the source tree with
     .actual files. *)
  let actual_path =
    Filename.concat (Filename.get_temp_dir_name ()) (fixture ^ ".actual")
  in
  let promote =
    Printf.sprintf "cp %s test/fixtures/dynamic/%s" actual_path fixture
  in
  if Sys.file_exists path then begin
    let expected = read_file path in
    if not (String.equal expected actual) then begin
      write_file actual_path actual;
      Alcotest.failf "golden mismatch for %s — inspect, then promote with: %s"
        fixture promote
    end
  end
  else begin
    write_file actual_path actual;
    Alcotest.failf "missing fixture %s — promote with: %s" fixture promote
  end

let test_golden_decision_log () =
  check_golden ~fixture:"decisions.json" (controller_log ())

(* --- drift survival ------------------------------------------------ *)

(* The PR's acceptance pin: the drifting-rate simulation where the
   static placement ends infeasible (negative modeled margin) while the
   controller-driven engine ends with positive margin, within budget.
   Mirrors experiment EXPREPLAN in quick mode. *)
let test_drift_survival () =
  let rng = Random.State.make [| 7207 |] in
  let graph =
    Query.Randgraph.generate_trees ~rng ~n_inputs:2 ~ops_per_tree:12
  in
  let problem =
    Problem.of_graph graph ~caps:(Problem.homogeneous_caps ~n:4 ~cap:1.)
  in
  let d = Problem.dim problem in
  let l = Problem.total_coefficients problem in
  let c_total = Problem.total_capacity problem in
  let horizon = 48. in
  let n_steps = int_of_float horizon in
  let factor k t =
    let s = float_of_int t /. float_of_int (n_steps - 1) in
    if k = 0 then 1. +. (1.9 *. s) else 1. -. (0.85 *. s)
  in
  let mean_rate k = 0.6 *. c_total /. (float_of_int d *. l.(k)) in
  let traces =
    Array.init d (fun k ->
        Workload.Trace.create ~dt:1.
          (Array.init n_steps (fun t -> mean_rate k *. factor k t)))
  in
  let final_rates =
    Vec.init d (fun k -> mean_rate k *. factor k (n_steps - 1))
  in
  let assignment = Rod.Rod_algorithm.place problem in
  let static_margin = Margin.of_assignment problem ~assignment ~rates:final_rates in
  Alcotest.(check bool)
    (Printf.sprintf "static ROD ends infeasible (margin %.4f)"
       static_margin.Margin.margin)
    true
    (static_margin.Margin.margin < 0.);
  let config =
    { Controller.default_config with Controller.samples = 512; cooldown = 4. }
  in
  let ctl = Controller.create ~config problem ~assignment in
  let arrivals =
    Array.map
      (fun trace -> Workload.Generators.deterministic_arrivals ~trace)
      traces
  in
  let metrics =
    Dsim.Engine.run ~graph ~assignment ~caps:problem.Problem.caps ~arrivals
      ~config:{ Dsim.Engine.default_config with warmup = 2. }
      ~dynamic:(Controller.engine_config ctl)
      ~until:horizon ()
  in
  let recovered =
    Margin.of_assignment problem
      ~assignment:(Controller.assignment ctl)
      ~rates:final_rates
  in
  Alcotest.(check bool)
    (Printf.sprintf "controller recovers a positive margin (%.4f)"
       recovered.Margin.margin)
    true
    (recovered.Margin.margin > 0.);
  Alcotest.(check bool) "the engine actually migrated" true
    (metrics.Dsim.Sim_metrics.migrations > 0);
  (* Every accepted replan stays within the move budget. *)
  List.iter
    (fun (dec : Controller.decision) ->
      match dec.Controller.action with
      | Controller.Replanned o ->
        Alcotest.(check bool) "replan within budget" true
          (List.length o.Replanner.moves <= config.Controller.budget)
      | Controller.Rejected _ | Controller.Hold -> ())
    (Controller.decisions ctl)

let suite =
  List.map (fun t -> QCheck_alcotest.to_alcotest ~rand:(Test_rand.get ()) t)
    [ prop_budget_respected; prop_accepted_never_worse; prop_input_not_mutated ]
  @ [
      Alcotest.test_case "controller log is pool-size independent" `Quick
        test_controller_pool_independent;
      Alcotest.test_case "golden controller decision log" `Quick
        test_golden_decision_log;
      Alcotest.test_case "drift survival under the controller" `Quick
        test_drift_survival;
    ]
