(* Round-trip and error-handling tests of the text serialization. *)

module Graph = Query.Graph
module Graph_io = Query.Graph_io
module Load_model = Query.Load_model

let graphs_equal a b =
  Graph.n_inputs a = Graph.n_inputs b
  && Graph.n_ops a = Graph.n_ops b
  && a.Graph.input_xfer_cost = b.Graph.input_xfer_cost
  && List.for_all
       (fun j ->
         let oa = Graph.op a j and ob = Graph.op b j in
         oa.Query.Op.name = ob.Query.Op.name
         && oa.Query.Op.kind = ob.Query.Op.kind
         && oa.Query.Op.out_xfer_cost = ob.Query.Op.out_xfer_cost
         && Graph.sources a j = Graph.sources b j)
       (List.init (Graph.n_ops a) (fun j -> j))

let check_roundtrip msg graph =
  let back = Graph_io.of_string (Graph_io.to_string graph) in
  Alcotest.(check bool) msg true (graphs_equal graph back)

let test_roundtrip_examples () =
  check_roundtrip "example2" (Query.Builder.example2 ());
  check_roundtrip "example3" (Query.Builder.example3 ());
  check_roundtrip "diamond" (Query.Builder.diamond ~cost:0.5);
  check_roundtrip "traffic" (Query.Builder.traffic_monitoring ~n_links:3);
  check_roundtrip "compliance" (Query.Builder.financial_compliance ~n_rules:4)

let test_roundtrip_preserves_load_model () =
  let graph = Query.Builder.example3 () in
  let back = Graph_io.of_string (Graph_io.to_string graph) in
  let lo g = Load_model.load_coefficients (Load_model.derive g) in
  Alcotest.(check bool) "identical load matrices" true
    (Linalg.Mat.equal (lo graph) (lo back))

let test_file_roundtrip () =
  let graph = Query.Builder.traffic_monitoring ~n_links:2 in
  let path = Filename.temp_file "rodgraph" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Graph_io.save graph ~path;
      Alcotest.(check bool) "file round-trip" true
        (graphs_equal graph (Graph_io.load ~path)))

let test_comments_and_blank_lines () =
  let text =
    "# a comment\n\nrodgraph v1\n  inputs 1 xfer=0\n\n# ops\nop name=f \
     inputs=I0 linear costs=2 sels=0.5 xfer=0\n"
  in
  let graph = Graph_io.of_string text in
  Alcotest.(check int) "one op" 1 (Graph.n_ops graph)

let expect_failure msg text =
  Alcotest.(check bool) msg true
    (try
       ignore (Graph_io.of_string text);
       false
     with Failure _ | Invalid_argument _ -> true)

let test_malformed_inputs () =
  expect_failure "bad header" "nope v1\ninputs 1 xfer=0\n";
  expect_failure "missing field"
    "rodgraph v1\ninputs 1 xfer=0\nop name=f inputs=I0 linear costs=2 xfer=0\n";
  expect_failure "bad float"
    "rodgraph v1\ninputs 1 xfer=0\nop name=f inputs=I0 linear costs=abc \
     sels=1 xfer=0\n";
  expect_failure "bad source"
    "rodgraph v1\ninputs 1 xfer=0\nop name=f inputs=x9 linear costs=1 sels=1 \
     xfer=0\n";
  expect_failure "unknown kind"
    "rodgraph v1\ninputs 1 xfer=0\nop name=f inputs=I0 magic cost=1 xfer=0\n";
  expect_failure "dangling reference"
    "rodgraph v1\ninputs 1 xfer=0\nop name=f inputs=o5 linear costs=1 sels=1 \
     xfer=0\n"

let test_assignment_roundtrip () =
  let assignment = [| 0; 3; 1; 1; 2; 0 |] in
  let back =
    Graph_io.assignment_of_string (Graph_io.assignment_to_string assignment)
  in
  Alcotest.(check (array int)) "assignment round-trip" assignment back;
  let path = Filename.temp_file "rodplan" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Graph_io.save_assignment assignment ~path;
      Alcotest.(check (array int)) "assignment file round-trip" assignment
        (Graph_io.load_assignment ~path))

let prop_random_graph_roundtrip =
  QCheck.Test.make ~name:"random graphs round-trip" ~count:40
    (QCheck.make QCheck.Gen.(pair (1 -- 4) (2 -- 15)))
    (fun (d, per_tree) ->
      let rng = Random.State.make [| d; per_tree; 5 |] in
      let graph =
        Query.Randgraph.generate ~rng
          {
            Query.Randgraph.default with
            n_inputs = d;
            ops_per_tree = per_tree;
            xfer_cost = 1e-4;
          }
      in
      graphs_equal graph (Graph_io.of_string (Graph_io.to_string graph)))

let suite =
  [
    Alcotest.test_case "round-trip builders" `Quick test_roundtrip_examples;
    Alcotest.test_case "round-trip load model" `Quick
      test_roundtrip_preserves_load_model;
    Alcotest.test_case "file round-trip" `Quick test_file_roundtrip;
    Alcotest.test_case "comments and blanks" `Quick test_comments_and_blank_lines;
    Alcotest.test_case "malformed inputs rejected" `Quick test_malformed_inputs;
    Alcotest.test_case "assignment round-trip" `Quick test_assignment_roundtrip;
    QCheck_alcotest.to_alcotest ~rand:(Test_rand.get ())
      prop_random_graph_roundtrip;
  ]
