(* Tests of the query-graph model and the (linearized) load model,
   anchored on the paper's worked Examples 1-3. *)

module Vec = Linalg.Vec
module Mat = Linalg.Mat
module Graph = Query.Graph
module Op = Query.Op
module Load_model = Query.Load_model

let approx = Alcotest.float 1e-9

let check_vec msg expected actual =
  Alcotest.(check (list (float 1e-9))) msg (Vec.to_list expected)
    (Vec.to_list actual)

(* Example 1 (Figure 4): load(o1)=c1 r1, load(o2)=c2 s1 r1,
   load(o3)=c3 r2, load(o4)=c4 s3 r2. *)
let test_example1_loads () =
  let c1, c2, c3, c4 = (2., 3., 5., 7.) in
  let s1, s3 = (0.5, 0.25) in
  let g = Query.Builder.example1 ~c1 ~c2 ~c3 ~c4 ~s1 ~s3 in
  let model = Load_model.derive g in
  let lo = Load_model.load_coefficients model in
  check_vec "load(o1)" (Vec.of_list [ c1; 0. ]) (Mat.row lo 0);
  check_vec "load(o2)" (Vec.of_list [ c2 *. s1; 0. ]) (Mat.row lo 1);
  check_vec "load(o3)" (Vec.of_list [ 0.; c3 ]) (Mat.row lo 2);
  check_vec "load(o4)" (Vec.of_list [ 0.; c4 *. s3 ]) (Mat.row lo 3)

(* Example 2: L^o = [(4,0);(6,0);(0,9);(0,2)], l = (10, 11). *)
let test_example2_matrix () =
  let model = Load_model.derive (Query.Builder.example2 ()) in
  let lo = Load_model.load_coefficients model in
  check_vec "o1" (Vec.of_list [ 4.; 0. ]) (Mat.row lo 0);
  check_vec "o2" (Vec.of_list [ 6.; 0. ]) (Mat.row lo 1);
  check_vec "o3" (Vec.of_list [ 0.; 9. ]) (Mat.row lo 2);
  check_vec "o4" (Vec.of_list [ 0.; 2. ]) (Mat.row lo 3);
  check_vec "l" (Vec.of_list [ 10.; 11. ]) (Load_model.total_coefficients model)

let test_op_rejects_non_finite () =
  Alcotest.check_raises "NaN filter cost"
    (Invalid_argument "Op: non-finite cost (nan)") (fun () ->
      ignore (Op.filter ~cost:nan ~sel:0.5 ()));
  Alcotest.check_raises "infinite join window"
    (Invalid_argument "Op: non-finite window (inf)") (fun () ->
      ignore (Op.join ~window:infinity ~cost_per_pair:1. ~sel:0.1 ()));
  Alcotest.check_raises "NaN var_sel lower selectivity"
    (Invalid_argument "Op: non-finite selectivity (nan)") (fun () ->
      ignore (Op.var_sel ~cost:1. ~sel_lo:nan ~sel_hi:1. ()))

let test_graph_validation () =
  Alcotest.check_raises "cycle detected"
    (Invalid_argument "Graph: cycle detected") (fun () ->
      ignore
        (Graph.create ~n_inputs:1
           ~ops:
             [
               (Op.map ~cost:1. (), [ Graph.Op_output 1 ]);
               (Op.map ~cost:1. (), [ Graph.Op_output 0 ]);
             ]
           ()));
  Alcotest.check_raises "bad input index"
    (Invalid_argument "Graph.create: op 0 reads bad input stream 3") (fun () ->
      ignore
        (Graph.create ~n_inputs:2 ~ops:[ (Op.map ~cost:1. (), [ Graph.Sys_input 3 ]) ] ()));
  Alcotest.check_raises "arity mismatch"
    (Invalid_argument "Graph.create: op 0 (join) expects 2 inputs, got 1")
    (fun () ->
      ignore
        (Graph.create ~n_inputs:1
           ~ops:
             [
               ( Op.join ~window:1. ~cost_per_pair:1. ~sel:0.5 (),
                 [ Graph.Sys_input 0 ] );
             ]
           ()))

let test_topology_queries () =
  let g = Query.Builder.diamond ~cost:1. in
  Alcotest.(check (list int)) "consumers of input" [ 0; 1 ]
    (Graph.consumers g (Graph.Sys_input 0));
  Alcotest.(check (list int)) "sinks" [ 2 ] (Graph.sinks g);
  let order = Graph.topo_order g in
  Alcotest.(check int) "topo covers all" 3 (List.length order);
  (* The union (op 2) must come after both filters. *)
  let pos x = Option.get (List.find_index (fun y -> y = x) order) in
  Alcotest.(check bool) "union after left" true (pos 2 > pos 0);
  Alcotest.(check bool) "union after right" true (pos 2 > pos 1)

(* Example 3 (Figure 13): two introduced variables; linearized loads
   evaluate to the true nonlinear loads at any concrete rate point. *)
let test_example3_linearization () =
  let g = Query.Builder.example3 () in
  Alcotest.(check bool) "graph is nonlinear" true (Graph.has_nonlinear g);
  let model = Load_model.derive g in
  Alcotest.(check int) "two extra variables" 4 (Load_model.d_total model);
  Alcotest.(check int) "system vars" 2 (Load_model.d_system model);
  let sys_rates = Vec.of_list [ 10.; 4. ] in
  (* Actual rates by hand: o1 out = 0.6*10 = 6 (sel_now), o2 out = 6,
     o3 out = 0.8*4 = 3.2, o4 out = 3.2.  Join o5: window 2, pair rate
     = 2*6*3.2 = 38.4, load = 0.5*38.4 = 19.2, out = 0.1*38.4 = 3.84. *)
  Alcotest.check approx "o2 rate" 6.
    (Load_model.stream_rate_at model ~sys_rates (Graph.Op_output 1));
  Alcotest.check approx "o4 rate" 3.2
    (Load_model.stream_rate_at model ~sys_rates (Graph.Op_output 3));
  Alcotest.check approx "o5 load" 19.2 (Load_model.op_load_at model ~sys_rates 4);
  Alcotest.check approx "o5 out rate" 3.84
    (Load_model.stream_rate_at model ~sys_rates (Graph.Op_output 4));
  Alcotest.check approx "o6 load" (2. *. 3.84)
    (Load_model.op_load_at model ~sys_rates 5);
  (* o1's own load is linear in r1 despite the drifting selectivity. *)
  Alcotest.check approx "o1 load" 20. (Load_model.op_load_at model ~sys_rates 0);
  (* The linear model agrees with direct evaluation through eval_vars. *)
  let vars = Load_model.eval_vars model ~sys_rates in
  let lo = Load_model.load_coefficients model in
  for j = 0 to Load_model.n_ops model - 1 do
    Alcotest.check approx
      (Printf.sprintf "linear load of o%d" (j + 1))
      (Load_model.op_load_at model ~sys_rates j)
      (Vec.dot (Mat.row lo j) vars)
  done

let test_linear_graph_has_no_extra_vars () =
  let model = Load_model.derive (Query.Builder.example2 ()) in
  Alcotest.(check int) "no extra vars" 2 (Load_model.d_total model)

let test_graph_dot () =
  let g = Query.Builder.example2 () in
  let plain = Query.Graph_dot.to_dot g in
  let contains text needle =
    let nl = String.length needle and tl = String.length text in
    let rec scan i = i + nl <= tl && (String.sub text i nl = needle || scan (i + 1)) in
    scan 0
  in
  Alcotest.(check bool) "digraph header" true (contains plain "digraph query");
  Alcotest.(check bool) "input node" true (contains plain "I0 [shape=invtriangle");
  Alcotest.(check bool) "edge" true (contains plain "o0 -> o1;");
  Alcotest.(check bool) "app sinks" true (contains plain "-> app");
  let placed = Query.Graph_dot.to_dot ~assignment:[| 0; 1; 0; 1 |] g in
  Alcotest.(check bool) "fill colors when placed" true
    (contains placed "fillcolor=");
  Alcotest.(check bool) "node labels" true (contains placed "node 1");
  Alcotest.(check bool) "bad assignment rejected" true
    (try
       ignore (Query.Graph_dot.to_dot ~assignment:[| 0 |] g);
       false
     with Invalid_argument _ -> true)

(* --- partitioning --- *)

let test_partition_preserves_rates () =
  let g = Query.Builder.example2 () in
  let split = Query.Partition.split_op ~route_cost:0. g ~op:2 ~ways:3 in
  Alcotest.(check int) "ops grew by 2*ways" (4 + 6) (Graph.n_ops split);
  let rates sys_rates graph =
    let model = Load_model.derive graph in
    (* o4 reads o3's (merged) output in both graphs. *)
    Load_model.stream_rate_at model ~sys_rates (Graph.Op_output 3)
  in
  let sys_rates = Vec.of_list [ 2.; 6. ] in
  Alcotest.check approx "end-to-end rate unchanged" (rates sys_rates g)
    (rates sys_rates split)

let test_partition_preserves_total_load () =
  let g = Query.Builder.example2 () in
  let split = Query.Partition.split_op ~route_cost:0. ~merge_cost:0. g ~op:2 ~ways:4 in
  let totals graph =
    Load_model.total_coefficients (Load_model.derive graph)
  in
  Alcotest.(check (list (float 1e-9)))
    "zero-overhead split keeps column sums"
    (Vec.to_list (totals g))
    (Vec.to_list (totals split))

let test_partition_splits_load_row () =
  let g = Query.Builder.example2 () in
  let split = Query.Partition.split_op ~route_cost:0. g ~op:2 ~ways:3 in
  let model = Load_model.derive split in
  let lo = Load_model.load_coefficients model in
  (* o3 had load 9 r2; each instance (indices 7..9) carries 3 r2. *)
  for i = 7 to 9 do
    Alcotest.check approx
      (Printf.sprintf "instance %d load" i)
      3. (Mat.get lo i 1)
  done;
  (* The union in o3's old slot carries no load at merge_cost 0. *)
  Alcotest.check approx "union load" 0. (Mat.get lo 2 1)

let test_partition_routing_overhead () =
  let g = Query.Builder.chain ~n_ops:1 ~cost:1e-3 ~sel:1. () in
  let split = Query.Partition.split_op ~route_cost:1e-4 g ~op:0 ~ways:4 in
  let l = Load_model.total_coefficients (Load_model.derive split) in
  (* Total = operator 1e-3 + routing 1e-4, independent of ways. *)
  Alcotest.check approx "total load with routing" 1.1e-3 l.(0)

let test_partition_rejects_bad_targets () =
  let g = Query.Builder.example3 () in
  Alcotest.(check bool) "join unsplittable" false (Query.Partition.splittable g 4);
  Alcotest.(check bool) "var-sel unsplittable" false (Query.Partition.splittable g 0);
  Alcotest.(check bool) "split rejects join" true
    (try
       ignore (Query.Partition.split_op g ~op:4 ~ways:2);
       false
     with Invalid_argument _ -> true)

let test_split_all_improves_balance () =
  (* A narrow graph (2 heavy ops per input) on 4 nodes: partitioning
     4-ways must strictly improve ROD's feasible ratio. *)
  let rng = Random.State.make [| 12 |] in
  let g = Query.Randgraph.generate_trees ~rng ~n_inputs:2 ~ops_per_tree:2 in
  let caps = Rod.Problem.homogeneous_caps ~n:4 ~cap:1. in
  let ratio graph =
    let problem = Rod.Problem.of_graph graph ~caps in
    (Rod.Plan.volume_qmc ~samples:4096 (Rod.Rod_algorithm.plan problem))
      .Feasible.Volume.ratio
  in
  let narrow = ratio g in
  let wide = ratio (Query.Partition.split_all ~route_cost:1e-6 ~ways:4 g) in
  Alcotest.(check bool)
    (Printf.sprintf "partitioned (%.3f) > narrow (%.3f)" wide narrow)
    true
    (wide > narrow +. 0.1)

let prop_partition_preserves_model =
  QCheck.Test.make ~name:"partitioning preserves rates and zero-cost loads"
    ~count:25
    (QCheck.make QCheck.Gen.(triple (0 -- 500) (2 -- 6) (2 -- 4)))
    (fun (seed, per_tree, ways) ->
      let rng = Random.State.make [| seed |] in
      let g = Query.Randgraph.generate_trees ~rng ~n_inputs:2 ~ops_per_tree:per_tree in
      let split = Query.Partition.split_all ~route_cost:0. ~merge_cost:0. ~ways g in
      let totals graph = Load_model.total_coefficients (Load_model.derive graph) in
      let sys_rates = Vec.of_list [ 3.; 5. ] in
      let sink_rates graph =
        let model = Load_model.derive graph in
        List.map
          (fun j -> Load_model.stream_rate_at model ~sys_rates (Graph.Op_output j))
          (List.filter (fun j -> j < Graph.n_ops g) (Graph.sinks g))
      in
      Vec.equal ~eps:1e-9 (totals g) (totals split)
      && List.for_all2
           (fun a b -> abs_float (a -. b) < 1e-9)
           (sink_rates g)
           (* Original sink slots hold the merge unions in the split
              graph, so the same indices compare directly. *)
           (List.map
              (fun j ->
                Load_model.stream_rate_at (Load_model.derive split) ~sys_rates
                  (Graph.Op_output j))
              (Graph.sinks g)))

let rand_graph_params = QCheck.Gen.(pair (1 -- 4) (2 -- 30))

let prop_randgraph_shape =
  QCheck.Test.make ~name:"randgraph: tree count and sizes" ~count:50
    (QCheck.make rand_graph_params) (fun (d, per_tree) ->
      let rng = Random.State.make [| d; per_tree |] in
      let g = Query.Randgraph.generate_trees ~rng ~n_inputs:d ~ops_per_tree:per_tree in
      Graph.n_ops g = d * per_tree && Graph.n_inputs g = d)

let prop_randgraph_costs_in_range =
  QCheck.Test.make ~name:"randgraph: delay costs and selectivities in range"
    ~count:30 (QCheck.make rand_graph_params) (fun (d, per_tree) ->
      let rng = Random.State.make [| 7 * d; per_tree |] in
      let g = Query.Randgraph.generate_trees ~rng ~n_inputs:d ~ops_per_tree:per_tree in
      let ok = ref true in
      for j = 0 to Graph.n_ops g - 1 do
        let linear = Op.linear_exn (Graph.op g j) in
        Array.iter
          (fun c -> if c < 1e-4 -. 1e-12 || c > 1e-3 +. 1e-12 then ok := false)
          linear.Op.costs;
        Array.iter
          (fun s -> if s < 0.5 -. 1e-12 || s > 1. +. 1e-12 then ok := false)
          linear.Op.selectivities
      done;
      !ok)

let prop_randgraph_half_unit_selectivity =
  QCheck.Test.make ~name:"randgraph: half the operators have selectivity one"
    ~count:30
    (QCheck.make QCheck.Gen.(2 -- 20))
    (fun per_tree ->
      let rng = Random.State.make [| 13; per_tree |] in
      let g =
        Query.Randgraph.generate_trees ~rng ~n_inputs:3 ~ops_per_tree:per_tree
      in
      let unit_count = ref 0 in
      for j = 0 to Graph.n_ops g - 1 do
        let linear = Op.linear_exn (Graph.op g j) in
        if linear.Op.selectivities.(0) = 1. then incr unit_count
      done;
      (* Exactly floor(per_tree / 2) per tree, plus whatever the uniform
         draw happens to hit 1.0 on (probability zero). *)
      !unit_count >= 3 * (per_tree / 2))

let prop_load_columns_positive =
  QCheck.Test.make ~name:"randgraph model: every variable carries load"
    ~count:30 (QCheck.make rand_graph_params) (fun (d, per_tree) ->
      let rng = Random.State.make [| 99; d; per_tree |] in
      let g = Query.Randgraph.generate_trees ~rng ~n_inputs:d ~ops_per_tree:per_tree in
      let model = Load_model.derive g in
      Vec.for_all (fun l -> l > 0.) (Load_model.total_coefficients model))

let suite =
  [
    Alcotest.test_case "example 1 loads" `Quick test_example1_loads;
    Alcotest.test_case "example 2 matrix" `Quick test_example2_matrix;
    Alcotest.test_case "graph validation" `Quick test_graph_validation;
    Alcotest.test_case "topology queries" `Quick test_topology_queries;
    Alcotest.test_case "example 3 linearization" `Quick test_example3_linearization;
    Alcotest.test_case "linear graph var count" `Quick
      test_linear_graph_has_no_extra_vars;
    Alcotest.test_case "graphviz export" `Quick test_graph_dot;
    Alcotest.test_case "partition preserves rates" `Quick
      test_partition_preserves_rates;
    Alcotest.test_case "partition preserves total load" `Quick
      test_partition_preserves_total_load;
    Alcotest.test_case "partition splits load row" `Quick
      test_partition_splits_load_row;
    Alcotest.test_case "partition routing overhead" `Quick
      test_partition_routing_overhead;
    Alcotest.test_case "partition rejects bad targets" `Quick
      test_partition_rejects_bad_targets;
    Alcotest.test_case "split_all improves balance" `Quick
      test_split_all_improves_balance;
    QCheck_alcotest.to_alcotest prop_partition_preserves_model;
    QCheck_alcotest.to_alcotest prop_randgraph_shape;
    QCheck_alcotest.to_alcotest prop_randgraph_costs_in_range;
    QCheck_alcotest.to_alcotest prop_randgraph_half_unit_selectivity;
    QCheck_alcotest.to_alcotest prop_load_columns_positive;
    Alcotest.test_case "op rejects non-finite values" `Quick
      test_op_rejects_non_finite;
  ]
