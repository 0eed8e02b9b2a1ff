(* Tests of the core library: problem/plan algebra, Theorem 1, metrics,
   the ROD algorithm, clustering and the exhaustive optimum. *)

module Vec = Linalg.Vec
module Mat = Linalg.Mat
module Problem = Rod.Problem
module Plan = Rod.Plan
module Ideal = Rod.Ideal
module Metrics = Rod.Metrics
module Rod_algorithm = Rod.Rod_algorithm
module Clustering = Rod.Clustering
module Optimal = Rod.Optimal

let approx eps = Alcotest.float eps

let example2_problem ?(caps = Vec.of_list [ 1.; 1. ]) () =
  Problem.of_graph (Query.Builder.example2 ()) ~caps

let random_problem seed ~n_inputs ~ops_per_tree ~n_nodes =
  let rng = Random.State.make [| seed |] in
  let g = Query.Randgraph.generate_trees ~rng ~n_inputs ~ops_per_tree in
  Problem.of_graph g ~caps:(Problem.homogeneous_caps ~n:n_nodes ~cap:1.)

let random_assignment rng problem =
  Array.init (Problem.n_ops problem) (fun _ ->
      Random.State.int rng (Problem.n_nodes problem))

let test_problem_validation () =
  Alcotest.check_raises "zero column rejected"
    (Invalid_argument
       "Problem.create: some rate variable carries no load (all-zero column)")
    (fun () ->
      ignore
        (Problem.create
           ~lo:(Mat.of_rows [ Vec.of_list [ 1.; 0. ] ])
           ~caps:(Vec.ones 1)));
  Alcotest.check_raises "nonpositive capacity rejected"
    (Invalid_argument "Problem.create: capacities must be strictly positive")
    (fun () ->
      ignore
        (Problem.create
           ~lo:(Mat.of_rows [ Vec.of_list [ 1. ] ])
           ~caps:(Vec.of_list [ 0. ])));
  (* NaN slips past every sign test; infinities would poison the
     shared QMC load table.  Both are rejected with their position. *)
  List.iter
    (fun (x, shown) ->
      Alcotest.check_raises (shown ^ " coefficient rejected")
        (Invalid_argument
           (Printf.sprintf
              "Problem.create: non-finite load coefficient %s at operator 1, \
               variable 0"
              shown))
        (fun () ->
          ignore
            (Problem.create
               ~lo:(Mat.of_rows [ Vec.of_list [ 1.; 1. ]; Vec.of_list [ x; 1. ] ])
               ~caps:(Vec.ones 2)));
      Alcotest.check_raises (shown ^ " capacity rejected")
        (Invalid_argument
           (Printf.sprintf "Problem.create: non-finite capacity %s at node 2"
              shown))
        (fun () ->
          ignore
            (Problem.create
               ~lo:(Mat.of_rows [ Vec.of_list [ 1. ] ])
               ~caps:(Vec.of_list [ 1.; 2.; x ]))))
    [ (Float.nan, "nan"); (Float.infinity, "inf"); (Float.neg_infinity, "-inf") ]

let test_plan_matrices () =
  let problem = example2_problem () in
  (* Plan (a): {o1,o4} on node 0, {o2,o3} on node 1. *)
  let plan = Plan.make problem [| 0; 1; 1; 0 |] in
  let ln = Plan.node_loads plan in
  Alcotest.(check (list (float 1e-9))) "node 0 loads" [ 4.; 2. ]
    (Vec.to_list (Mat.row ln 0));
  Alcotest.(check (list (float 1e-9))) "node 1 loads" [ 6.; 9. ]
    (Vec.to_list (Mat.row ln 1));
  (* L^n = A L^o must hold by construction. *)
  let by_matmul = Mat.matmul (Plan.allocation_matrix plan) problem.Problem.lo in
  Alcotest.(check bool) "A L^o = node_loads" true (Mat.equal by_matmul ln);
  Alcotest.(check (list int)) "ops on node 0" [ 0; 3 ] (Plan.ops_on plan 0);
  (* Weights: w_ik = (ln_ik / l_k) / (C_i / C_T); here C_i/C_T = 1/2. *)
  let w = Plan.weight_matrix plan in
  Alcotest.check (approx 1e-9) "w00" (4. /. 10. *. 2.) (Mat.get w 0 0);
  Alcotest.check (approx 1e-9) "w11" (9. /. 11. *. 2.) (Mat.get w 1 1)

let test_plan_feasibility () =
  let problem = example2_problem () in
  let plan = Plan.make problem [| 0; 0; 1; 1 |] in
  (* node 0: 10 r1 <= 1; node 1: 11 r2 <= 1. *)
  Alcotest.(check bool) "inside" true
    (Plan.is_feasible_at plan ~rates:(Vec.of_list [ 0.09; 0.09 ]));
  Alcotest.(check bool) "outside" false
    (Plan.is_feasible_at plan ~rates:(Vec.of_list [ 0.11; 0.01 ]));
  let u = Plan.utilizations plan ~rates:(Vec.of_list [ 0.05; 0.05 ]) in
  Alcotest.check (approx 1e-9) "node0 utilization" 0.5 u.(0);
  Alcotest.check (approx 1e-9) "node1 utilization" 0.55 u.(1)

(* Theorem 1: the ideal matrix's feasible set is the whole ideal simplex
   (ratio 1), and its columns sum to l. *)
let test_ideal_matrix () =
  let problem = random_problem 21 ~n_inputs:3 ~ops_per_tree:10 ~n_nodes:4 in
  let ideal = Ideal.matrix problem in
  let l = Problem.total_coefficients problem in
  Alcotest.(check bool) "columns sum to l" true
    (Vec.equal ~eps:1e-9 l (Mat.col_sums ideal));
  let est =
    Feasible.Volume.ratio_qmc ~ln:ideal ~caps:problem.Problem.caps ~l
      ~samples:4096 ()
  in
  Alcotest.check (approx 1e-9) "ideal achieves ratio 1" 1. est.Feasible.Volume.ratio

let test_ideal_volume_formula () =
  let problem = example2_problem () in
  Alcotest.check (approx 1e-12) "C_T^d / (d! prod l)" (4. /. 220.)
    (Ideal.volume problem)

(* Theorem 1 as a property: no plan's feasible ratio exceeds 1 (every
   sampled point of any plan's feasible set lies in the ideal simplex,
   so the QMC ratio is a true ratio), and the ideal hyperplane is a
   necessary condition. *)
let prop_no_plan_beats_ideal =
  QCheck.Test.make ~name:"no plan exceeds the ideal feasible set" ~count:25
    (QCheck.make QCheck.Gen.(pair (0 -- 1000) (2 -- 4)))
    (fun (seed, n_nodes) ->
      let problem = random_problem seed ~n_inputs:2 ~ops_per_tree:6 ~n_nodes in
      let rng = Random.State.make [| seed + 1 |] in
      let plan = Plan.make problem (random_assignment rng problem) in
      let est = Plan.volume_qmc ~samples:512 plan in
      est.Feasible.Volume.ratio <= 1. +. 1e-9)

(* Column conservation: sum_i l^n_ik = l_k for every plan (§2.3). *)
let prop_column_conservation =
  QCheck.Test.make ~name:"node loads conserve column sums" ~count:50
    (QCheck.make QCheck.Gen.(pair (0 -- 1000) (1 -- 5)))
    (fun (seed, n_nodes) ->
      let problem = random_problem seed ~n_inputs:3 ~ops_per_tree:5 ~n_nodes in
      let rng = Random.State.make [| seed * 3 |] in
      let plan = Plan.make problem (random_assignment rng problem) in
      Vec.equal ~eps:1e-6
        (Problem.total_coefficients problem)
        (Mat.col_sums (Plan.node_loads plan)))

let test_metrics_on_ideal_weights () =
  (* A plan that happens to realize the ideal matrix: two identical
     operators on two identical nodes. *)
  let lo = Mat.of_rows [ Vec.of_list [ 1.; 2. ]; Vec.of_list [ 1.; 2. ] ] in
  let problem = Problem.create ~lo ~caps:(Vec.of_list [ 1.; 1. ]) in
  let plan = Plan.make problem [| 0; 1 |] in
  Alcotest.(check bool) "weights are ideal" true (Ideal.weight_matrix_is_ideal plan);
  let s = Metrics.summary plan in
  Alcotest.check (approx 1e-9) "r equals ideal distance" (1. /. sqrt 2.)
    s.Metrics.plane_distance;
  Alcotest.check (approx 1e-9) "r/r* = 1" 1. s.Metrics.plane_distance_ratio;
  Alcotest.check (approx 1e-9) "MMAD bound = 1" 1. s.Metrics.mmad_volume_bound;
  (* d=2, r = 1/sqrt 2: bound = 2! * (pi r^2) / 2^2 = pi/4. *)
  Alcotest.check (approx 1e-9) "MMPD sphere bound = pi/4" (Float.pi /. 4.)
    s.Metrics.mmpd_volume_bound

(* The MMAD product is a valid lower bound and 1 an upper bound on the
   feasible ratio. *)
let prop_mmad_bound_sandwiches_ratio =
  QCheck.Test.make ~name:"MMAD and MMPD bounds <= QMC ratio <= 1" ~count:20
    (QCheck.make QCheck.Gen.(0 -- 500))
    (fun seed ->
      let problem = random_problem seed ~n_inputs:2 ~ops_per_tree:8 ~n_nodes:3 in
      let rng = Random.State.make [| seed + 17 |] in
      let plan = Plan.make problem (random_assignment rng problem) in
      let est = Plan.volume_qmc ~samples:4096 plan in
      let bound = Metrics.mmad_volume_bound plan in
      let sphere = Metrics.mmpd_volume_bound plan in
      (* QMC error margin on the lower side. *)
      bound <= est.Feasible.Volume.ratio +. 0.02
      && sphere <= est.Feasible.Volume.ratio +. 0.02
      && est.Feasible.Volume.ratio <= 1. +. 1e-9)

let test_rod_operator_ordering () =
  let problem = example2_problem () in
  (* Norms: o1=4, o2=6, o3=9, o4=2 -> order o3, o2, o1, o4. *)
  Alcotest.(check (list int)) "descending norm" [ 2; 1; 0; 3 ]
    (Rod_algorithm.order_operators problem)

let test_rod_on_example2 () =
  let problem = example2_problem () in
  let rod_plan = Rod_algorithm.plan problem in
  let rod_ratio = (Plan.volume_qmc ~samples:8192 rod_plan).Feasible.Volume.ratio in
  (* ROD must match or beat every Table 2 style plan. *)
  List.iter
    (fun (name, assignment) ->
      let ratio =
        (Plan.volume_qmc ~samples:8192 (Plan.make problem assignment))
          .Feasible.Volume.ratio
      in
      Alcotest.(check bool)
        (Printf.sprintf "ROD (%.3f) >= %s (%.3f)" rod_ratio name ratio)
        true
        (rod_ratio >= ratio -. 0.01))
    Query.Builder.example2_plans

let test_rod_deterministic () =
  let problem = random_problem 5 ~n_inputs:4 ~ops_per_tree:12 ~n_nodes:5 in
  let a = Rod_algorithm.place problem in
  let b = Rod_algorithm.place problem in
  Alcotest.(check (array int)) "same assignment" a b

let test_rod_uses_all_nodes () =
  let problem = random_problem 9 ~n_inputs:5 ~ops_per_tree:20 ~n_nodes:8 in
  let plan = Rod_algorithm.plan problem in
  let counts = Plan.op_counts plan in
  Alcotest.(check bool) "no empty node" true (Array.for_all (fun c -> c > 0) counts)

let test_rod_policies_agree_on_validity () =
  let rng = Random.State.make [| 31 |] in
  let g = Query.Randgraph.generate_trees ~rng ~n_inputs:3 ~ops_per_tree:8 in
  let problem = Problem.of_graph g ~caps:(Problem.homogeneous_caps ~n:3 ~cap:1.) in
  List.iter
    (fun policy ->
      let a = Rod_algorithm.place ~policy problem in
      Alcotest.(check int) "assignment length" (Problem.n_ops problem)
        (Array.length a))
    [
      Rod_algorithm.Max_plane_distance;
      Rod_algorithm.First_fit;
      Rod_algorithm.Min_new_arcs g;
    ]

let test_rod_min_new_arcs_cuts_fewer () =
  let rng = Random.State.make [| 47 |] in
  let g = Query.Randgraph.generate_trees ~rng ~n_inputs:4 ~ops_per_tree:15 in
  let model = Query.Load_model.derive g in
  let problem = Problem.of_model model ~caps:(Problem.homogeneous_caps ~n:4 ~cap:1.) in
  let cuts assignment =
    List.length (Clustering.cut_arcs ~model ~assignment)
  in
  let plain = cuts (Rod_algorithm.place problem) in
  let aware = cuts (Rod_algorithm.place ~policy:(Rod_algorithm.Min_new_arcs g) problem) in
  Alcotest.(check bool)
    (Printf.sprintf "connectivity-aware (%d) <= plain (%d)" aware plain)
    true (aware <= plain)

(* §6.1: with a lower bound, ROD optimizes the conditional region. *)
let test_rod_lower_bound_variant () =
  let problem = random_problem 3 ~n_inputs:3 ~ops_per_tree:10 ~n_nodes:3 in
  let l = Problem.total_coefficients problem in
  let c_total = Problem.total_capacity problem in
  (* A lower bound consuming 40% of capacity, spread evenly. *)
  let d = Problem.dim problem in
  let lower = Vec.init d (fun k -> 0.4 *. c_total /. float_of_int d /. l.(k)) in
  let base = Rod_algorithm.plan problem in
  let bounded = Rod_algorithm.plan ~lower problem in
  let ratio plan =
    (Plan.volume_qmc ~samples:8192 ~lower plan).Feasible.Volume.ratio
  in
  Alcotest.(check bool)
    (Printf.sprintf "lower-bound-aware (%.3f) >= base - noise (%.3f)"
       (ratio bounded) (ratio base))
    true
    (ratio bounded >= ratio base -. 0.05)

let test_optimal_small_instance () =
  (* Two independent unit operators on two unit nodes.  The optimum
     splits them: the feasible set is the unit square (area 1), half of
     the ideal simplex r1 + r2 <= 2 (area 2) — and the ideal is not
     achievable here, so 0.5 is the best possible ratio.  Co-location
     gives the triangle r1 + r2 <= 1 (ratio 0.25). *)
  let lo = Mat.of_rows [ Vec.of_list [ 1.; 0. ]; Vec.of_list [ 0.; 1. ] ] in
  let problem = Problem.create ~lo ~caps:(Vec.of_list [ 1.; 1. ]) in
  let result = Optimal.search ~samples:2048 problem in
  Alcotest.check (approx 0.01) "optimal ratio 1/2" 0.5 result.Optimal.ratio;
  Alcotest.(check bool) "split assignment" true
    (result.Optimal.assignment.(0) <> result.Optimal.assignment.(1));
  Alcotest.(check int) "symmetry halves the space" 2 result.Optimal.explored

let test_optimal_guard () =
  let problem = random_problem 1 ~n_inputs:2 ~ops_per_tree:20 ~n_nodes:4 in
  Alcotest.(check bool) "guard triggers" true
    (try
       ignore (Optimal.search ~max_assignments:1000 problem);
       false
     with Invalid_argument _ -> true)

let prop_rod_close_to_optimal =
  (* TBLOPT measures a worst case around 0.75 of optimal, so 0.65 gives
     the property room against unlucky QCheck seeds. *)
  QCheck.Test.make ~name:"ROD within 35% of exhaustive optimum (small)" ~count:8
    (QCheck.make QCheck.Gen.(0 -- 100))
    (fun seed ->
      let problem = random_problem seed ~n_inputs:2 ~ops_per_tree:5 ~n_nodes:2 in
      let best = Optimal.search ~samples:1024 problem in
      let rod_ratio =
        Optimal.ratio_of_assignment ~samples:1024 problem
          (Rod_algorithm.place problem)
      in
      rod_ratio >= (0.65 *. best.Optimal.ratio) -. 1e-9)

(* --- incremental placement --- *)

let test_incremental_respects_pins () =
  let problem = random_problem 4 ~n_inputs:3 ~ops_per_tree:8 ~n_nodes:4 in
  let m = Problem.n_ops problem in
  let fixed =
    Array.init m (fun j -> if j mod 3 = 0 then Some (j mod 4) else None)
  in
  let assignment = Rod_algorithm.place_incremental ~fixed problem in
  Array.iteri
    (fun j pin ->
      match pin with
      | Some node -> Alcotest.(check int) "pin respected" node assignment.(j)
      | None ->
        Alcotest.(check bool) "placed somewhere" true
          (assignment.(j) >= 0 && assignment.(j) < 4))
    fixed

let test_incremental_all_free_equals_place () =
  let problem = random_problem 6 ~n_inputs:3 ~ops_per_tree:8 ~n_nodes:4 in
  let fixed = Array.make (Problem.n_ops problem) None in
  Alcotest.(check (array int)) "no pins = plain ROD"
    (Rod_algorithm.place problem)
    (Rod_algorithm.place_incremental ~fixed problem)

let test_incremental_balances_around_pins () =
  (* Four identical unit ops, two pinned to node 0: the two free ops
     must land on node 1 to balance. *)
  let lo = Mat.init 4 1 (fun _ _ -> 1.) in
  let problem = Problem.create ~lo ~caps:(Vec.of_list [ 1.; 1. ]) in
  let fixed = [| Some 0; Some 0; None; None |] in
  let assignment = Rod_algorithm.place_incremental ~fixed problem in
  Alcotest.(check int) "free op 2 on node 1" 1 assignment.(2);
  Alcotest.(check int) "free op 3 on node 1" 1 assignment.(3)

let test_incremental_new_query_scenario () =
  (* Deploy a graph, then "add a query": extend the problem with extra
     rows, pin the old operators, place only the new ones.  The result
     should stay close to replacing from scratch. *)
  let base = random_problem 9 ~n_inputs:3 ~ops_per_tree:6 ~n_nodes:4 in
  let base_assignment = Rod_algorithm.place base in
  let extra = random_problem 10 ~n_inputs:3 ~ops_per_tree:4 ~n_nodes:4 in
  let combined_lo =
    Mat.of_rows
      (List.init (Problem.n_ops base) (Problem.op_load base)
      @ List.init (Problem.n_ops extra) (Problem.op_load extra))
  in
  let problem = Problem.create ~lo:combined_lo ~caps:base.Problem.caps in
  let fixed =
    Array.init (Problem.n_ops problem) (fun j ->
        if j < Problem.n_ops base then Some base_assignment.(j) else None)
  in
  let incremental = Rod_algorithm.place_incremental ~fixed problem in
  let scratch = Rod_algorithm.place problem in
  let ratio a =
    (Plan.volume_qmc ~samples:4096 (Plan.make problem a)).Feasible.Volume.ratio
  in
  Alcotest.(check bool)
    (Printf.sprintf "incremental (%.3f) within 25%% of scratch (%.3f)"
       (ratio incremental) (ratio scratch))
    true
    (ratio incremental >= (0.75 *. ratio scratch) -. 0.02)

let test_place_traced () =
  let problem = random_problem 3 ~n_inputs:3 ~ops_per_tree:8 ~n_nodes:4 in
  let assignment, trace = Rod_algorithm.place_traced problem in
  Alcotest.(check (array int)) "trace agrees with place"
    (Rod_algorithm.place problem) assignment;
  Alcotest.(check int) "one decision per operator" (Problem.n_ops problem)
    (List.length trace);
  List.iteri
    (fun rank d ->
      Alcotest.(check int) "ranks sequential" rank d.Rod_algorithm.rank;
      Alcotest.(check int) "trace node matches assignment"
        assignment.(d.Rod_algorithm.op) d.Rod_algorithm.node;
      Alcotest.(check bool) "class-one count bounded" true
        (d.Rod_algorithm.class_one_count >= 0
        && d.Rod_algorithm.class_one_count <= 4))
    trace;
  (* Norms nonincreasing: the heaviest operator goes first. *)
  let norms = List.map (fun d -> d.Rod_algorithm.norm) trace in
  Alcotest.(check bool) "norms nonincreasing" true
    (List.for_all2 ( >= )
       (List.filteri (fun i _ -> i < List.length norms - 1) norms)
       (List.tl norms));
  (* Early placements on a 4-node cluster with 24 small ops are free. *)
  (match trace with
  | first :: _ ->
    Alcotest.(check bool) "first move is class I" true
      first.Rod_algorithm.class_one
  | [] -> Alcotest.fail "empty trace")

(* --- failure recovery --- *)

let test_degraded_problem () =
  let problem =
    Problem.create
      ~lo:(Mat.init 3 2 (fun _ k -> float_of_int (k + 1)))
      ~caps:(Vec.of_list [ 3.; 2.; 1. ])
  in
  let degraded = Rod.Failure.degraded_problem problem ~failed:1 in
  Alcotest.(check (list (float 1e-12))) "caps without node 1" [ 3.; 1. ]
    (Vec.to_list degraded.Problem.caps);
  Alcotest.(check int) "same operators" 3 (Problem.n_ops degraded);
  Alcotest.(check bool) "bad index rejected" true
    (try
       ignore (Rod.Failure.degraded_problem problem ~failed:7);
       false
     with Invalid_argument _ -> true)

let test_recovery_pins_survivors () =
  let problem = random_problem 77 ~n_inputs:3 ~ops_per_tree:8 ~n_nodes:4 in
  let assignment = Rod_algorithm.place problem in
  let failed = 2 in
  let recovered = Rod.Failure.recovery_assignment problem ~assignment ~failed in
  Array.iteri
    (fun j old_node ->
      if old_node <> failed then begin
        let expected = if old_node < failed then old_node else old_node - 1 in
        Alcotest.(check int)
          (Printf.sprintf "survivor %d unmoved" j)
          expected recovered.(j)
      end
      else
        Alcotest.(check bool)
          (Printf.sprintf "orphan %d on a live node" j)
          true
          (recovered.(j) >= 0 && recovered.(j) < 3))
    assignment

let test_survival_known_geometry () =
  (* Two independent unit operators split over two unit nodes: before =
     unit square (1); after failing node 1, both ops share node 0:
     r1 + r2 <= 1, volume 1/2 -> survival 1/2. *)
  let lo = Mat.of_rows [ Vec.of_list [ 1.; 0. ]; Vec.of_list [ 0.; 1. ] ] in
  let problem = Problem.create ~lo ~caps:(Vec.of_list [ 1.; 1. ]) in
  let r = Rod.Failure.survival ~samples:16384 problem ~assignment:[| 0; 1 |] ~failed:1 in
  Alcotest.check (approx 0.01) "before = unit square" 1. r.Rod.Failure.volume_before;
  Alcotest.check (approx 0.01) "after = half" 0.5 r.Rod.Failure.volume_after;
  Alcotest.check (approx 0.02) "survival" 0.5 r.Rod.Failure.survival;
  Alcotest.check (approx 1e-9) "capacity bound" 0.25 r.Rod.Failure.capacity_bound

let test_mean_survival_bounds () =
  let problem = random_problem 31 ~n_inputs:3 ~ops_per_tree:6 ~n_nodes:3 in
  let assignment = Rod_algorithm.place problem in
  let s = Rod.Failure.mean_survival ~samples:2048 problem ~assignment in
  Alcotest.(check bool)
    (Printf.sprintf "mean survival %.3f in (0, 1]" s)
    true
    (s > 0. && s <= 1.)

(* --- local search --- *)

let test_local_search_never_hurts () =
  for seed = 1 to 5 do
    let problem = random_problem seed ~n_inputs:3 ~ops_per_tree:8 ~n_nodes:4 in
    let rod = Rod_algorithm.place problem in
    let base = Optimal.ratio_of_assignment ~samples:1024 problem rod in
    let out = Rod.Local_search.improve ~samples:1024 problem rod in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: polished %.3f >= rod %.3f" seed
         out.Rod.Local_search.ratio base)
      true
      (out.Rod.Local_search.ratio >= base -. 1e-9)
  done

let test_local_search_fixes_bad_start () =
  (* Two independent unit ops on two nodes, both dumped on node 0: a
     single move doubles the feasible set; local search must find it. *)
  let lo = Mat.of_rows [ Vec.of_list [ 1.; 0. ]; Vec.of_list [ 0.; 1. ] ] in
  let problem = Problem.create ~lo ~caps:(Vec.of_list [ 1.; 1. ]) in
  let out = Rod.Local_search.improve ~samples:2048 problem [| 0; 0 |] in
  Alcotest.(check bool) "split found" true
    (out.Rod.Local_search.assignment.(0) <> out.Rod.Local_search.assignment.(1));
  Alcotest.check (approx 0.02) "near-optimal ratio" 0.5 out.Rod.Local_search.ratio;
  Alcotest.(check bool) "at least one move" true (out.Rod.Local_search.moves >= 1)

let test_local_search_closes_gap_to_optimal () =
  let improved = ref 0 in
  for seed = 10 to 15 do
    let problem = random_problem seed ~n_inputs:2 ~ops_per_tree:5 ~n_nodes:2 in
    let best = Optimal.search ~samples:1024 problem in
    let polished = Rod.Local_search.rod_polished ~samples:1024 problem in
    Alcotest.(check bool)
      (Printf.sprintf "polished %.3f <= optimal %.3f"
         polished.Rod.Local_search.ratio best.Optimal.ratio)
      true
      (polished.Rod.Local_search.ratio <= best.Optimal.ratio +. 1e-9);
    if
      polished.Rod.Local_search.ratio
      >= (0.99 *. best.Optimal.ratio) -. 1e-9
    then incr improved
  done;
  Alcotest.(check bool)
    (Printf.sprintf "%d/6 instances within 1%% of optimal" !improved)
    true (!improved >= 4)

let test_local_search_idempotent_at_optimum () =
  (* Starting from an exhaustive optimum, no move can improve: local
     search must return immediately with the same assignment. *)
  let problem = random_problem 42 ~n_inputs:2 ~ops_per_tree:4 ~n_nodes:2 in
  let best = Optimal.search ~samples:1024 problem in
  let out =
    Rod.Local_search.improve ~samples:1024 problem best.Optimal.assignment
  in
  Alcotest.(check int) "no moves" 0 out.Rod.Local_search.moves;
  Alcotest.(check (array int)) "assignment unchanged" best.Optimal.assignment
    out.Rod.Local_search.assignment;
  Alcotest.check (approx 1e-9) "same ratio" best.Optimal.ratio
    out.Rod.Local_search.ratio

let test_local_search_terminates () =
  let problem = random_problem 2 ~n_inputs:4 ~ops_per_tree:10 ~n_nodes:5 in
  let out =
    Rod.Local_search.improve ~samples:256 ~max_passes:3 problem
      (Rod_algorithm.place problem)
  in
  Alcotest.(check bool) "bounded passes" true (out.Rod.Local_search.passes <= 3)

(* --- ablation variants --- *)

let test_ablation_variants_valid () =
  let problem = random_problem 7 ~n_inputs:3 ~ops_per_tree:8 ~n_nodes:4 in
  List.iter
    (fun variant ->
      let a = Rod.Ablation.place variant problem in
      Alcotest.(check int)
        (Rod.Ablation.name variant ^ " length")
        (Problem.n_ops problem) (Array.length a);
      Alcotest.(check (array int))
        (Rod.Ablation.name variant ^ " deterministic")
        a
        (Rod.Ablation.place variant problem))
    Rod.Ablation.all

let test_ablation_full_matches_published () =
  let problem = random_problem 8 ~n_inputs:4 ~ops_per_tree:10 ~n_nodes:5 in
  Alcotest.(check (array int)) "Full delegates to Rod_algorithm"
    (Rod_algorithm.place problem)
    (Rod.Ablation.place Rod.Ablation.Full problem)

let test_ablation_full_beats_mmad_only () =
  (* Averaged over several instances: the combination dominates the
     pure per-stream balancer, which ignores weight combinations. *)
  let mean variant =
    let acc = ref 0. in
    for seed = 1 to 6 do
      let problem = random_problem seed ~n_inputs:4 ~ops_per_tree:10 ~n_nodes:6 in
      let a = Rod.Ablation.place variant problem in
      acc :=
        !acc
        +. (Plan.volume_qmc ~samples:2048 (Plan.make problem a))
             .Feasible.Volume.ratio
    done;
    !acc /. 6.
  in
  let full = mean Rod.Ablation.Full and mmad = mean Rod.Ablation.Mmad_only in
  Alcotest.(check bool)
    (Printf.sprintf "full (%.3f) > MMAD-only (%.3f)" full mmad)
    true (full > mmad)

(* --- heterogeneous capacities --- *)

let test_heterogeneous_capacity_proportional () =
  (* Eight identical unit operators on nodes of capacity 3 and 1: the
     resilient plan loads nodes in proportion to capacity. *)
  let lo = Mat.init 8 1 (fun _ _ -> 1.) in
  let problem = Problem.create ~lo ~caps:(Vec.of_list [ 3.; 1. ]) in
  let plan = Rod_algorithm.plan problem in
  let counts = Plan.op_counts plan in
  Alcotest.(check int) "six ops on the big node" 6 counts.(0);
  Alcotest.(check int) "two ops on the small node" 2 counts.(1);
  let u = Plan.utilizations plan ~rates:(Vec.of_list [ 0.2 ]) in
  Alcotest.check (approx 1e-9) "equal utilization" u.(0) u.(1)

let test_heterogeneous_ideal_ratio_one () =
  let problem =
    Problem.create
      ~lo:(Mat.init 12 2 (fun j k -> if j mod 2 = k then 2. else 1.))
      ~caps:(Vec.of_list [ 2.; 1.; 0.5 ])
  in
  let ideal = Rod.Ideal.matrix problem in
  let est =
    Feasible.Volume.ratio_qmc ~ln:ideal ~caps:problem.Problem.caps
      ~l:(Problem.total_coefficients problem)
      ~samples:4096 ()
  in
  Alcotest.check (approx 1e-9) "heterogeneous ideal ratio 1" 1.
    est.Feasible.Volume.ratio

let test_clustering_trivial () =
  let c = Clustering.trivial ~n_ops:4 in
  Alcotest.(check int) "clusters" 4 c.Clustering.n_clusters;
  Alcotest.(check (array int)) "identity" [| 0; 1; 2; 3 |] c.Clustering.op_cluster

let clustered_chain_model () =
  (* A chain with expensive arcs: transfer cost 10x the processing
     cost, so clustering should fold the chain. *)
  let g = Query.Builder.chain ~xfer:1e-2 ~n_ops:4 ~cost:1e-3 ~sel:1. () in
  Query.Load_model.derive g

let test_clustering_folds_expensive_arcs () =
  let model = clustered_chain_model () in
  let c =
    Clustering.cluster ~model ~policy:Clustering.Heaviest_arc_first ~threshold:1.
      ~max_weight_frac:1. ()
  in
  Alcotest.(check int) "one cluster" 1 c.Clustering.n_clusters

let test_clustering_respects_threshold () =
  let g = Query.Builder.chain ~xfer:1e-6 ~n_ops:4 ~cost:1e-3 ~sel:1. () in
  let model = Query.Load_model.derive g in
  let c =
    Clustering.cluster ~model ~policy:Clustering.Heaviest_arc_first ~threshold:1. ()
  in
  Alcotest.(check int) "cheap arcs stay cut" 4 c.Clustering.n_clusters

let test_clustering_preserves_load () =
  let model = clustered_chain_model () in
  let problem =
    Problem.of_model model ~caps:(Problem.homogeneous_caps ~n:2 ~cap:1.)
  in
  let c =
    Clustering.cluster ~model ~policy:Clustering.Min_weight_pair ~threshold:0.5
      ~max_weight_frac:0.6 ()
  in
  let reduced = Clustering.clustered_problem problem c in
  Alcotest.(check bool) "total coefficients preserved" true
    (Vec.equal ~eps:1e-9
       (Problem.total_coefficients problem)
       (Problem.total_coefficients reduced))

let test_clustering_expand () =
  let model = clustered_chain_model () in
  let c =
    Clustering.cluster ~model ~policy:Clustering.Heaviest_arc_first ~threshold:1.
      ~max_weight_frac:1. ()
  in
  let expanded = Clustering.expand c [| 1 |] in
  Alcotest.(check (array int)) "all ops follow their cluster" [| 1; 1; 1; 1 |]
    expanded

let test_effective_loads_add_comm () =
  let g = Query.Builder.chain ~xfer:2e-3 ~n_ops:2 ~cost:1e-3 ~sel:1. () in
  let model = Query.Load_model.derive g in
  (* Input receive cost is zero here (chain sets only op xfer). *)
  let split = Clustering.effective_node_loads ~model ~n_nodes:2 ~assignment:[| 0; 1 |] in
  let together = Clustering.effective_node_loads ~model ~n_nodes:2 ~assignment:[| 0; 0 |] in
  (* Split: node0 = op0 (1e-3) + send (2e-3); node1 = op1 (1e-3) + recv. *)
  Alcotest.check (approx 1e-12) "sender pays" 3e-3 (Mat.get split 0 0);
  Alcotest.check (approx 1e-12) "receiver pays" 3e-3 (Mat.get split 1 0);
  Alcotest.check (approx 1e-12) "co-located pays nothing" 2e-3
    (Mat.get together 0 0)

let test_select_best_prefers_clustering_under_heavy_comm () =
  let model = clustered_chain_model () in
  let caps = Problem.homogeneous_caps ~n:2 ~cap:1. in
  let clustering, assignment =
    Clustering.select_best ~max_weight_frac:1.0 ~model ~caps ()
  in
  ignore clustering;
  (* With transfer 10x processing, any cut arc dominates load; the best
     plan keeps the chain together. *)
  let distinct = Array.to_list assignment |> List.sort_uniq compare in
  Alcotest.(check int) "chain kept on one node" 1 (List.length distinct)

let suite =
  [
    Alcotest.test_case "problem validation" `Quick test_problem_validation;
    Alcotest.test_case "plan matrices" `Quick test_plan_matrices;
    Alcotest.test_case "plan feasibility" `Quick test_plan_feasibility;
    Alcotest.test_case "ideal matrix (Theorem 1)" `Quick test_ideal_matrix;
    Alcotest.test_case "ideal volume formula" `Quick test_ideal_volume_formula;
    Alcotest.test_case "metrics on ideal weights" `Quick test_metrics_on_ideal_weights;
    Alcotest.test_case "ROD operator ordering" `Quick test_rod_operator_ordering;
    Alcotest.test_case "ROD on example 2" `Quick test_rod_on_example2;
    Alcotest.test_case "ROD deterministic" `Quick test_rod_deterministic;
    Alcotest.test_case "ROD uses all nodes" `Quick test_rod_uses_all_nodes;
    Alcotest.test_case "ROD policies valid" `Quick test_rod_policies_agree_on_validity;
    Alcotest.test_case "ROD min-new-arcs cuts fewer" `Quick
      test_rod_min_new_arcs_cuts_fewer;
    Alcotest.test_case "ROD lower-bound variant" `Slow test_rod_lower_bound_variant;
    Alcotest.test_case "optimal on trivial instance" `Quick test_optimal_small_instance;
    Alcotest.test_case "optimal guard" `Quick test_optimal_guard;
    Alcotest.test_case "incremental respects pins" `Quick
      test_incremental_respects_pins;
    Alcotest.test_case "incremental all-free = place" `Quick
      test_incremental_all_free_equals_place;
    Alcotest.test_case "incremental balances around pins" `Quick
      test_incremental_balances_around_pins;
    Alcotest.test_case "incremental new-query scenario" `Quick
      test_incremental_new_query_scenario;
    Alcotest.test_case "place traced" `Quick test_place_traced;
    Alcotest.test_case "degraded problem" `Quick test_degraded_problem;
    Alcotest.test_case "recovery pins survivors" `Quick test_recovery_pins_survivors;
    Alcotest.test_case "survival known geometry" `Quick test_survival_known_geometry;
    Alcotest.test_case "mean survival bounds" `Quick test_mean_survival_bounds;
    Alcotest.test_case "local search never hurts" `Quick
      test_local_search_never_hurts;
    Alcotest.test_case "local search fixes bad start" `Quick
      test_local_search_fixes_bad_start;
    Alcotest.test_case "local search vs optimal" `Slow
      test_local_search_closes_gap_to_optimal;
    Alcotest.test_case "local search idempotent at optimum" `Quick
      test_local_search_idempotent_at_optimum;
    Alcotest.test_case "local search terminates" `Quick
      test_local_search_terminates;
    Alcotest.test_case "ablation variants valid" `Quick test_ablation_variants_valid;
    Alcotest.test_case "ablation Full = published" `Quick
      test_ablation_full_matches_published;
    Alcotest.test_case "ablation Full beats MMAD-only" `Slow
      test_ablation_full_beats_mmad_only;
    Alcotest.test_case "heterogeneous proportional load" `Quick
      test_heterogeneous_capacity_proportional;
    Alcotest.test_case "heterogeneous ideal ratio 1" `Quick
      test_heterogeneous_ideal_ratio_one;
    Alcotest.test_case "clustering trivial" `Quick test_clustering_trivial;
    Alcotest.test_case "clustering folds expensive arcs" `Quick
      test_clustering_folds_expensive_arcs;
    Alcotest.test_case "clustering respects threshold" `Quick
      test_clustering_respects_threshold;
    Alcotest.test_case "clustering preserves load" `Quick test_clustering_preserves_load;
    Alcotest.test_case "clustering expand" `Quick test_clustering_expand;
    Alcotest.test_case "effective loads add comm" `Quick test_effective_loads_add_comm;
    Alcotest.test_case "select_best clusters heavy comm" `Quick
      test_select_best_prefers_clustering_under_heavy_comm;
    QCheck_alcotest.to_alcotest ~rand:(Test_rand.get ())
      prop_no_plan_beats_ideal;
    QCheck_alcotest.to_alcotest ~rand:(Test_rand.get ())
      prop_column_conservation;
    QCheck_alcotest.to_alcotest ~rand:(Test_rand.get ())
      prop_mmad_bound_sandwiches_ratio;
    QCheck_alcotest.to_alcotest ~rand:(Test_rand.get ())
      prop_rod_close_to_optimal;
  ]
