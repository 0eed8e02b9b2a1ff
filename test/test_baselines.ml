(* Tests of the four baseline load-distribution algorithms. *)

module Vec = Linalg.Vec
module Mat = Linalg.Mat
module Problem = Rod.Problem
module Plan = Rod.Plan

let graph_and_problem seed ~n_inputs ~ops_per_tree ~n_nodes =
  let rng = Random.State.make [| seed |] in
  let g = Query.Randgraph.generate_trees ~rng ~n_inputs ~ops_per_tree in
  (g, Problem.of_graph g ~caps:(Problem.homogeneous_caps ~n:n_nodes ~cap:1.))

let valid_assignment problem assignment =
  Array.length assignment = Problem.n_ops problem
  && Array.for_all
       (fun node -> node >= 0 && node < Problem.n_nodes problem)
       assignment

let test_random_balanced_counts () =
  let _, problem = graph_and_problem 1 ~n_inputs:3 ~ops_per_tree:7 ~n_nodes:4 in
  let rng = Random.State.make [| 2 |] in
  let assignment = Baselines.random_balanced ~rng problem in
  Alcotest.(check bool) "valid" true (valid_assignment problem assignment);
  let counts = Plan.op_counts (Plan.make problem assignment) in
  let lo = Array.fold_left min max_int counts in
  let hi = Array.fold_left max 0 counts in
  Alcotest.(check bool)
    (Printf.sprintf "balanced counts (%d..%d)" lo hi)
    true (hi - lo <= 1)

let test_random_balanced_varies_with_seed () =
  let _, problem = graph_and_problem 1 ~n_inputs:3 ~ops_per_tree:7 ~n_nodes:4 in
  let a = Baselines.random_balanced ~rng:(Random.State.make [| 3 |]) problem in
  let b = Baselines.random_balanced ~rng:(Random.State.make [| 4 |]) problem in
  Alcotest.(check bool) "different seeds differ" true (a <> b)

let test_llf_balances_at_point () =
  let _, problem = graph_and_problem 5 ~n_inputs:4 ~ops_per_tree:10 ~n_nodes:4 in
  let rates = Vec.create (Problem.dim problem) 1. in
  let assignment = Baselines.llf ~rates problem in
  Alcotest.(check bool) "valid" true (valid_assignment problem assignment);
  let u = Plan.utilizations (Plan.make problem assignment) ~rates in
  let spread = Vec.max_elt u -. Vec.min_elt u in
  (* LLF equalizes load at its reference point; with 40 operators the
     node loads should be within a third of the mean of each other. *)
  Alcotest.(check bool)
    (Printf.sprintf "balanced at reference point (spread %.3f, mean %.3f)"
       spread (Vec.mean u))
    true
    (spread < 0.34 *. Vec.mean u)

let test_llf_greedy_on_simple_case () =
  (* Loads 3,3,2 on two nodes: LLF puts 3|3,2 never 3,3|2. *)
  let lo =
    Mat.of_rows [ Vec.of_list [ 3. ]; Vec.of_list [ 3. ]; Vec.of_list [ 2. ] ]
  in
  let problem = Problem.create ~lo ~caps:(Vec.of_list [ 1.; 1. ]) in
  let assignment = Baselines.llf ~rates:(Vec.of_list [ 1. ]) problem in
  Alcotest.(check bool) "the two heavy ops are split" true
    (assignment.(0) <> assignment.(1))

let test_connected_reduces_cut_arcs () =
  let g, problem = graph_and_problem 11 ~n_inputs:4 ~ops_per_tree:12 ~n_nodes:4 in
  let model = Query.Load_model.derive g in
  let rates = Vec.create (Problem.dim problem) 1. in
  let connected = Baselines.connected ~rates ~graph:g problem in
  Alcotest.(check bool) "valid" true (valid_assignment problem connected);
  let llf = Baselines.llf ~rates problem in
  let cuts assignment =
    List.length (Rod.Clustering.cut_arcs ~model ~assignment)
  in
  Alcotest.(check bool)
    (Printf.sprintf "connected cuts (%d) <= LLF cuts (%d)" (cuts connected)
       (cuts llf))
    true
    (cuts connected <= cuts llf)

let test_connected_respects_average_cap () =
  let g, problem = graph_and_problem 13 ~n_inputs:3 ~ops_per_tree:10 ~n_nodes:3 in
  let rates = Vec.create (Problem.dim problem) 1. in
  let assignment = Baselines.connected ~rates ~graph:g problem in
  let plan = Plan.make problem assignment in
  let loads =
    Vec.init (Problem.n_nodes problem) (fun i -> Plan.node_load_at plan ~rates i)
  in
  let total = Vec.sum loads in
  let average = total /. float_of_int (Problem.n_nodes problem) in
  (* No node can exceed the average by more than one operator's load
     beyond the seed operator placed after the check. *)
  let max_op_load =
    let m = Problem.n_ops problem in
    let best = ref 0. in
    for j = 0 to m - 1 do
      best := Float.max !best (Vec.dot (Problem.op_load problem j) rates)
    done;
    !best
  in
  Alcotest.(check bool) "no node grossly over average" true
    (Vec.max_elt loads <= average +. (2. *. max_op_load))

let test_correlation_separates_same_input_ops () =
  (* Two independent chains on two nodes: perfectly correlated
     operators (same input) should not all land together. *)
  let g =
    Query.Graph.create ~n_inputs:2
      ~ops:
        [
          (Query.Op.map ~cost:1. (), [ Query.Graph.Sys_input 0 ]);
          (Query.Op.map ~cost:1. (), [ Query.Graph.Op_output 0 ]);
          (Query.Op.map ~cost:1. (), [ Query.Graph.Sys_input 1 ]);
          (Query.Op.map ~cost:1. (), [ Query.Graph.Op_output 2 ]);
        ]
      ()
  in
  let problem = Problem.of_graph g ~caps:(Problem.homogeneous_caps ~n:2 ~cap:1.) in
  (* Rate series where the two inputs move independently. *)
  let series =
    Mat.of_rows
      [
        Vec.of_list [ 1.; 0.1 ]; Vec.of_list [ 0.1; 1. ];
        Vec.of_list [ 2.; 0.2 ]; Vec.of_list [ 0.3; 1.5 ];
        Vec.of_list [ 1.5; 0.1 ]; Vec.of_list [ 0.1; 2. ];
      ]
  in
  let assignment = Baselines.correlation ~series problem in
  Alcotest.(check bool) "valid" true (valid_assignment problem assignment);
  Alcotest.(check bool) "input-0 ops split across nodes" true
    (assignment.(0) <> assignment.(1));
  Alcotest.(check bool) "input-1 ops split across nodes" true
    (assignment.(2) <> assignment.(3))

let test_correlation_rejects_bad_series () =
  let _, problem = graph_and_problem 1 ~n_inputs:2 ~ops_per_tree:3 ~n_nodes:2 in
  Alcotest.(check bool) "wrong dimension rejected" true
    (try
       ignore (Baselines.correlation ~series:(Mat.zeros 4 7) problem);
       false
     with Invalid_argument _ -> true)

(* All baselines conserve the column sums like any assignment. *)
let prop_baselines_conserve_columns =
  QCheck.Test.make ~name:"baseline plans conserve column sums" ~count:20
    (QCheck.make QCheck.Gen.(0 -- 200))
    (fun seed ->
      let g, problem = graph_and_problem seed ~n_inputs:3 ~ops_per_tree:6 ~n_nodes:3 in
      let rng = Random.State.make [| seed + 1 |] in
      let rates = Vec.create (Problem.dim problem) 1. in
      let series =
        Mat.init 8 (Problem.dim problem) (fun _ _ -> Random.State.float rng 2.)
      in
      let plans =
        [
          Baselines.random_balanced ~rng problem;
          Baselines.llf ~rates problem;
          Baselines.connected ~rates ~graph:g problem;
          Baselines.correlation ~series problem;
        ]
      in
      List.for_all
        (fun assignment ->
          Vec.equal ~eps:1e-6
            (Problem.total_coefficients problem)
            (Mat.col_sums (Plan.node_loads (Plan.make problem assignment))))
        plans)

let suite =
  [
    Alcotest.test_case "random balanced counts" `Quick test_random_balanced_counts;
    Alcotest.test_case "random varies with seed" `Quick
      test_random_balanced_varies_with_seed;
    Alcotest.test_case "LLF balances at point" `Quick test_llf_balances_at_point;
    Alcotest.test_case "LLF greedy split" `Quick test_llf_greedy_on_simple_case;
    Alcotest.test_case "connected reduces cut arcs" `Quick
      test_connected_reduces_cut_arcs;
    Alcotest.test_case "connected respects average" `Quick
      test_connected_respects_average_cap;
    Alcotest.test_case "correlation separates same-input ops" `Quick
      test_correlation_separates_same_input_ops;
    Alcotest.test_case "correlation validates series" `Quick
      test_correlation_rejects_bad_series;
    QCheck_alcotest.to_alcotest ~rand:(Test_rand.get ())
      prop_baselines_conserve_columns;
  ]
