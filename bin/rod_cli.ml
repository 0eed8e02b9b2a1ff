(* rod-cli: command-line front end for the ROD library.

   Subcommands:
     place      build a query graph, place it, print plan + metrics
     volume     feasible-set size of a placement
     trace      synthesize a workload trace and print it
     simulate   place a graph and replay a bursty workload in the DES
     experiment run one of the paper-reproduction experiments *)

open Cmdliner

module Vec = Linalg.Vec
module Problem = Rod.Problem
module Plan = Rod.Plan

(* --- shared graph selection --- *)

type graph_kind =
  | Random_trees
  | Example2
  | Example3
  | Traffic
  | Compliance

let graph_kind_conv =
  let parse = function
    | "random" -> Ok Random_trees
    | "example2" -> Ok Example2
    | "example3" -> Ok Example3
    | "traffic" -> Ok Traffic
    | "compliance" -> Ok Compliance
    | s -> Error (`Msg (Printf.sprintf "unknown graph %S" s))
  in
  let print fmt k =
    Format.pp_print_string fmt
      (match k with
      | Random_trees -> "random"
      | Example2 -> "example2"
      | Example3 -> "example3"
      | Traffic -> "traffic"
      | Compliance -> "compliance")
  in
  Arg.conv (parse, print)

let graph_arg =
  Arg.(
    value
    & opt graph_kind_conv Random_trees
    & info [ "g"; "graph" ] ~docv:"KIND"
        ~doc:
          "Query graph: $(b,random) operator trees, the paper's \
           $(b,example2)/$(b,example3), a $(b,traffic) monitoring app or a \
           $(b,compliance) app.")

let inputs_arg =
  Arg.(
    value & opt int 5
    & info [ "d"; "inputs" ] ~docv:"D" ~doc:"Input streams (random graphs).")

let ops_arg =
  Arg.(
    value & opt int 20
    & info [ "ops-per-tree" ] ~docv:"K"
        ~doc:"Operators per tree (random graphs).")

let nodes_arg =
  Arg.(value & opt int 10 & info [ "n"; "nodes" ] ~docv:"N" ~doc:"Cluster nodes.")

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let samples_arg =
  Arg.(
    value & opt int 8192
    & info [ "samples" ] ~docv:"S" ~doc:"QMC samples for volume estimates.")

(* --- observability exports (shared by place/sim/chaos/experiment) --- *)

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Write the metrics registry snapshot as JSON (schema \
           rod-obs-metrics/1) to $(docv).")

let obs_trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write the span trace as Chrome trace_event JSON to $(docv); load \
           it in Perfetto or about:tracing.")

let prom_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "prom" ] ~docv:"FILE"
        ~doc:"Write metrics in Prometheus text exposition format to $(docv).")

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents)

let export_obs metrics trace prom =
  let snapshot = lazy (Obs.snapshot ()) in
  Option.iter
    (fun path ->
      write_file path (Obs.Export.metrics_json (Lazy.force snapshot)))
    metrics;
  Option.iter
    (fun path -> write_file path (Obs.Export.trace_json (Obs.events ())))
    trace;
  Option.iter
    (fun path -> write_file path (Obs.Export.prometheus (Lazy.force snapshot)))
    prom

let build_graph kind ~seed ~inputs ~ops_per_tree =
  match kind with
  | Random_trees ->
    Query.Randgraph.generate_trees
      ~rng:(Random.State.make [| seed |])
      ~n_inputs:inputs ~ops_per_tree
  | Example2 -> Query.Builder.example2 ()
  | Example3 -> Query.Builder.example3 ()
  | Traffic -> Query.Builder.traffic_monitoring ~n_links:(max 1 inputs)
  | Compliance -> Query.Builder.financial_compliance ~n_rules:(max 1 ops_per_tree)

type algorithm_choice =
  | Rod_alg
  | Llf_alg
  | Connected_alg
  | Correlation_alg
  | Random_alg

let algorithm_conv =
  let parse = function
    | "rod" -> Ok Rod_alg
    | "llf" -> Ok Llf_alg
    | "connected" -> Ok Connected_alg
    | "correlation" -> Ok Correlation_alg
    | "random" -> Ok Random_alg
    | s -> Error (`Msg (Printf.sprintf "unknown algorithm %S" s))
  in
  let print fmt a =
    Format.pp_print_string fmt
      (match a with
      | Rod_alg -> "rod"
      | Llf_alg -> "llf"
      | Connected_alg -> "connected"
      | Correlation_alg -> "correlation"
      | Random_alg -> "random")
  in
  Arg.conv (parse, print)

let algorithm_arg =
  Arg.(
    value & opt algorithm_conv Rod_alg
    & info [ "a"; "algorithm" ] ~docv:"ALG"
        ~doc:
          "Placement algorithm: $(b,rod), $(b,llf), $(b,connected), \
           $(b,correlation) or $(b,random).")

let run_algorithm algorithm ~seed ~graph ~problem =
  let rng = Random.State.make [| seed + 1 |] in
  let d = Problem.dim problem in
  let l = Problem.total_coefficients problem in
  let c_total = Problem.total_capacity problem in
  let center = Vec.init d (fun k -> c_total /. (2. *. float_of_int d *. l.(k))) in
  match algorithm with
  | Rod_alg -> Rod.Rod_algorithm.place problem
  | Llf_alg -> Baselines.llf ~rates:center problem
  | Connected_alg -> Baselines.connected ~rates:center ~graph problem
  | Correlation_alg ->
    let series =
      Linalg.Mat.init 32 d (fun _ k -> Random.State.float rng (2. *. center.(k)))
    in
    Baselines.correlation ~series problem
  | Random_alg -> Baselines.random_balanced ~rng problem

(* --- place --- *)

let load_graph_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "load-graph" ] ~docv:"FILE"
        ~doc:"Read the query graph from a rodgraph file instead of building one.")

let save_graph_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "save-graph" ] ~docv:"FILE" ~doc:"Write the query graph to FILE.")

let save_plan_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "save-plan" ] ~docv:"FILE"
        ~doc:"Write the computed assignment to FILE (rodplan format).")

let explain_arg =
  Arg.(
    value & flag
    & info [ "explain" ]
        ~doc:"Print the greedy's decision log (one line per operator).")

let polish_arg =
  Arg.(
    value & flag
    & info [ "polish" ]
        ~doc:
          "Refine the placement by local search (relocations + swaps) on the \
           feasible-set objective.")

let dot_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "dot" ] ~docv:"FILE"
        ~doc:
          "Write a Graphviz rendering of the placed graph (operators colored \
           by node) to FILE.")

let place_cmd =
  let run kind inputs ops_per_tree nodes seed algorithm samples load_graph
      save_graph save_plan polish dot explain metrics obs_trace prom =
    let graph =
      match load_graph with
      | Some path -> Query.Graph_io.load ~path
      | None -> build_graph kind ~seed ~inputs ~ops_per_tree
    in
    Option.iter (fun path -> Query.Graph_io.save graph ~path) save_graph;
    let problem =
      Problem.of_graph graph ~caps:(Problem.homogeneous_caps ~n:nodes ~cap:1.)
    in
    let assignment =
      if explain && algorithm = Rod_alg then begin
        let assignment, trace = Rod.Rod_algorithm.place_traced problem in
        Format.printf "%a@." Rod.Rod_algorithm.pp_trace trace;
        assignment
      end
      else run_algorithm algorithm ~seed ~graph ~problem
    in
    let assignment =
      if polish then begin
        let out = Rod.Local_search.improve ~samples problem assignment in
        Format.printf "local search: %d moves over %d passes@."
          out.Rod.Local_search.moves out.Rod.Local_search.passes;
        out.Rod.Local_search.assignment
      end
      else assignment
    in
    Option.iter
      (fun path -> Query.Graph_io.save_assignment assignment ~path)
      save_plan;
    Option.iter
      (fun path -> Query.Graph_dot.save ~assignment graph ~path)
      dot;
    let plan = Plan.make problem assignment in
    Format.printf "%a@." Plan.pp plan;
    Format.printf "%a@." Rod.Metrics.pp_summary (Rod.Metrics.summary plan);
    let est = Plan.volume_qmc ~samples plan in
    Format.printf "feasible-set ratio vs ideal: %.4f@." est.Feasible.Volume.ratio;
    export_obs metrics obs_trace prom
  in
  let term =
    Term.(
      const run $ graph_arg $ inputs_arg $ ops_arg $ nodes_arg $ seed_arg
      $ algorithm_arg $ samples_arg $ load_graph_arg $ save_graph_arg
      $ save_plan_arg $ polish_arg $ dot_arg $ explain_arg $ metrics_arg
      $ obs_trace_arg $ prom_arg)
  in
  Cmd.v
    (Cmd.info "place" ~doc:"Place a query graph and report its resiliency.")
    term

(* --- volume --- *)

let volume_cmd =
  let run kind inputs ops_per_tree nodes seed samples =
    let graph = build_graph kind ~seed ~inputs ~ops_per_tree in
    let problem =
      Problem.of_graph graph ~caps:(Problem.homogeneous_caps ~n:nodes ~cap:1.)
    in
    Format.printf "ideal feasible-set volume: %.6g@." (Rod.Ideal.volume problem);
    List.iter
      (fun algorithm ->
        let assignment = run_algorithm algorithm ~seed ~graph ~problem in
        let est = Plan.volume_qmc ~samples (Plan.make problem assignment) in
        let name =
          Format.asprintf "%a" (Arg.conv_printer algorithm_conv) algorithm
        in
        Format.printf "%-12s ratio %.4f volume %.6g@." name
          est.Feasible.Volume.ratio est.Feasible.Volume.volume)
      [ Rod_alg; Correlation_alg; Llf_alg; Random_alg; Connected_alg ]
  in
  let term =
    Term.(
      const run $ graph_arg $ inputs_arg $ ops_arg $ nodes_arg $ seed_arg
      $ samples_arg)
  in
  Cmd.v
    (Cmd.info "volume"
       ~doc:"Compare feasible-set volumes of all algorithms on one graph.")
    term

(* --- trace --- *)

let trace_cmd =
  let kind_conv =
    let parse = function
      | "pkt" -> Ok `Pkt
      | "tcp" -> Ok `Tcp
      | "http" -> Ok `Http
      | "poisson" -> Ok `Poisson
      | "flash" -> Ok `Flash
      | s -> Error (`Msg (Printf.sprintf "unknown trace kind %S" s))
    in
    let print fmt k =
      Format.pp_print_string fmt
        (match k with
        | `Pkt -> "pkt"
        | `Tcp -> "tcp"
        | `Http -> "http"
        | `Poisson -> "poisson"
        | `Flash -> "flash")
    in
    Arg.conv (parse, print)
  in
  let kind_arg =
    Arg.(
      value & opt kind_conv `Pkt
      & info [ "k"; "kind" ] ~docv:"KIND"
          ~doc:"$(b,pkt), $(b,tcp), $(b,http), $(b,poisson) or $(b,flash).")
  in
  let levels_arg =
    Arg.(
      value & opt int 8
      & info [ "levels" ] ~docv:"L" ~doc:"Length = 2^L intervals.")
  in
  let csv_arg =
    Arg.(value & flag & info [ "csv" ] ~doc:"Emit interval,rate CSV lines.")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:"Also save the trace in rodtrace format.")
  in
  let run kind levels seed csv out =
    let rng = Random.State.make [| seed |] in
    let n = 1 lsl levels in
    let trace =
      match kind with
      | `Pkt -> Workload.Traces.synthesize ~levels ~rng Workload.Traces.Pkt
      | `Tcp -> Workload.Traces.synthesize ~levels ~rng Workload.Traces.Tcp
      | `Http -> Workload.Traces.synthesize ~levels ~rng Workload.Traces.Http
      | `Poisson ->
        Workload.Trace.normalize
          (Workload.Generators.poisson_counts ~rng ~n ~dt:1. ~mean_rate:100.)
      | `Flash ->
        Workload.Trace.normalize
          (Workload.Generators.flash_crowd ~rng ~n ~dt:1. ~base_rate:1.
             ~spike_prob:0.02 ~spike_factor:8. ~decay:0.8)
    in
    Option.iter (fun path -> Workload.Trace_io.save trace ~path) out;
    if csv then
      Array.iteri
        (fun i r -> Printf.printf "%d,%.6f\n" i r)
        trace.Workload.Trace.rates
    else begin
      Format.printf "%a@." Workload.Trace.pp_summary trace;
      Format.printf "hurst(R/S) = %.3f@."
        (Workload.Stats.hurst_rs trace.Workload.Trace.rates)
    end
  in
  let term =
    Term.(const run $ kind_arg $ levels_arg $ seed_arg $ csv_arg $ out_arg)
  in
  Cmd.v (Cmd.info "trace" ~doc:"Synthesize a self-similar workload trace.") term

(* --- simulate --- *)

let controller_summary ctl =
  let accepted, rejected, moves =
    List.fold_left
      (fun (a, r, m) (dec : Dynamic.Controller.decision) ->
        match dec.Dynamic.Controller.action with
        | Dynamic.Controller.Replanned o ->
          (a + 1, r, m + List.length o.Dynamic.Replanner.moves)
        | Dynamic.Controller.Rejected _ -> (a, r + 1, m)
        | Dynamic.Controller.Hold -> (a, r, m))
      (0, 0, 0)
      (Dynamic.Controller.decisions ctl)
  in
  Format.printf "controller: %d replans accepted (%d moves), %d rejected@."
    accepted moves rejected

let simulate_term =
  let load_arg =
    Arg.(
      value & opt float 0.7
      & info [ "load" ] ~docv:"PHI"
          ~doc:"Mean demand as a fraction of the ideal boundary.")
  in
  let duration_arg =
    Arg.(
      value & opt float 64.
      & info [ "duration" ] ~docv:"T" ~doc:"Simulated seconds.")
  in
  let controller_arg =
    Arg.(
      value & flag
      & info [ "controller" ]
          ~doc:
            "Run the $(b,rod.dynamic) margin controller over the simulation: \
             replan under a move budget when the modeled feasible-set margin \
             erodes, and migrate live (pause-drain-resume).")
  in
  let budget_arg =
    Arg.(
      value & opt int 3
      & info [ "budget" ] ~docv:"B"
          ~doc:"Migration budget per replan (with $(b,--controller)).")
  in
  let decisions_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "decisions" ] ~docv:"FILE"
          ~doc:
            "Write the controller's decision log as JSON (schema \
             rod-replan-log/1) to $(docv) (with $(b,--controller)).")
  in
  let run kind inputs ops_per_tree nodes seed algorithm load duration
      controller budget decisions obs_metrics obs_trace prom =
    let graph = build_graph kind ~seed ~inputs ~ops_per_tree in
    let problem =
      Problem.of_graph graph ~caps:(Problem.homogeneous_caps ~n:nodes ~cap:1.)
    in
    let assignment = run_algorithm algorithm ~seed ~graph ~problem in
    let d = Query.Graph.n_inputs graph in
    let l = Problem.total_coefficients problem in
    let c_total = Problem.total_capacity problem in
    let rng = Random.State.make [| seed + 2 |] in
    let levels = max 1 (int_of_float (ceil (log duration /. log 2.))) in
    let traces =
      Array.init d (fun k ->
          let mean = load *. c_total /. (float_of_int d *. l.(k)) in
          Workload.Trace.scale mean
            (Workload.Trace.normalize
               (Workload.Bmodel.trace ~rng ~bias:0.65 ~levels ~mean_rate:1.
                  ~dt:1.)))
    in
    let config = { Dsim.Engine.default_config with warmup = 1. } in
    if controller then begin
      let ctl =
        Dynamic.Controller.create
          ~config:{ Dynamic.Controller.default_config with budget }
          ~cost_of:(Dynamic.Statesize.graph_cost graph)
          problem ~assignment
      in
      let arrivals =
        Array.map
          (fun trace -> Workload.Generators.deterministic_arrivals ~trace)
          traces
      in
      let metrics =
        Dsim.Engine.run ~graph ~assignment ~caps:problem.Problem.caps
          ~arrivals ~config
          ~dynamic:(Dynamic.Controller.engine_config ctl)
          ~until:duration ()
      in
      Format.printf "%a@." Dsim.Sim_metrics.pp metrics;
      controller_summary ctl;
      Option.iter
        (fun path -> write_file path (Dynamic.Controller.decisions_json ctl))
        decisions
    end
    else begin
      let metrics =
        Dsim.Probe.simulate_traces ~config ~graph ~assignment
          ~caps:problem.Problem.caps ~traces ()
      in
      Format.printf "%a@." Dsim.Sim_metrics.pp metrics
    end;
    export_obs obs_metrics obs_trace prom
  in
  Term.(
    const run $ graph_arg $ inputs_arg $ ops_arg $ nodes_arg $ seed_arg
    $ algorithm_arg $ load_arg $ duration_arg $ controller_arg $ budget_arg
    $ decisions_arg $ metrics_arg $ obs_trace_arg $ prom_arg)

let simulate_cmd =
  Cmd.v
    (Cmd.info "simulate"
       ~doc:"Replay a bursty workload against a placement in the simulator.")
    simulate_term

(* cmdliner has no subcommand aliases; "sim" is a second command sharing
   simulate's term. *)
let sim_cmd =
  Cmd.v (Cmd.info "sim" ~doc:"Alias for $(b,simulate).") simulate_term

(* --- cluster --- *)

let cluster_cmd =
  let xfer_arg =
    Arg.(
      value & opt float 1e-3
      & info [ "xfer" ] ~docv:"COST"
          ~doc:"Per-tuple network transfer cost in CPU seconds.")
  in
  let run inputs ops_per_tree nodes seed xfer samples =
    let rng = Random.State.make [| seed |] in
    let graph =
      Query.Randgraph.generate ~rng
        {
          Query.Randgraph.default with
          n_inputs = inputs;
          ops_per_tree;
          xfer_cost = xfer;
        }
    in
    let model = Query.Load_model.derive graph in
    let caps = Problem.homogeneous_caps ~n:nodes ~cap:1. in
    let problem = Problem.of_model model ~caps in
    let report label assignment =
      let ln =
        Rod.Clustering.effective_node_loads ~model ~n_nodes:nodes ~assignment
      in
      let est = Feasible.Volume.ratio_qmc ~ln ~caps ~samples () in
      let cuts =
        List.length (Rod.Clustering.cut_arcs ~model ~assignment)
      in
      Format.printf "%-24s cuts %3d   volume %.5g@." label cuts
        est.Feasible.Volume.volume
    in
    report "communication-blind ROD" (Rod.Rod_algorithm.place problem);
    let clustering, assignment = Rod.Clustering.select_best ~model ~caps () in
    report "clustered ROD" assignment;
    Format.printf "clusters: %d (of %d operators)@."
      clustering.Rod.Clustering.n_clusters
      (Query.Graph.n_ops graph)
  in
  let term =
    Term.(
      const run $ inputs_arg $ ops_arg $ nodes_arg $ seed_arg $ xfer_arg
      $ samples_arg)
  in
  Cmd.v
    (Cmd.info "cluster"
       ~doc:"Run the operator-clustering pipeline under communication cost.")
    term

(* --- optimal --- *)

let optimal_cmd =
  let run inputs ops_per_tree nodes seed samples =
    let graph =
      build_graph Random_trees ~seed ~inputs ~ops_per_tree
    in
    let problem =
      Problem.of_graph graph ~caps:(Problem.homogeneous_caps ~n:nodes ~cap:1.)
    in
    let space =
      Rod.Optimal.search_space ~n_nodes:nodes
        ~n_ops:(Problem.n_ops problem)
    in
    Format.printf "search space: %.3g assignments@." space;
    let best = Rod.Optimal.search ~samples problem in
    let rod =
      Rod.Optimal.ratio_of_assignment ~samples problem
        (Rod.Rod_algorithm.place problem)
    in
    Format.printf "optimal ratio %.4f (explored %d assignments)@."
      best.Rod.Optimal.ratio best.Rod.Optimal.explored;
    Format.printf "ROD ratio     %.4f (%.1f%% of optimal)@." rod
      (100. *. rod /. Float.max best.Rod.Optimal.ratio 1e-9)
  in
  let term =
    Term.(
      const run $ inputs_arg $ ops_arg $ nodes_arg $ seed_arg $ samples_arg)
  in
  Cmd.v
    (Cmd.info "optimal"
       ~doc:"Exhaustive optimum on a small instance, compared with ROD.")
    term

(* --- failure --- *)

let failure_cmd =
  let run kind inputs ops_per_tree nodes seed algorithm samples =
    let graph = build_graph kind ~seed ~inputs ~ops_per_tree in
    let problem =
      Problem.of_graph graph ~caps:(Problem.homogeneous_caps ~n:nodes ~cap:1.)
    in
    let assignment = run_algorithm algorithm ~seed ~graph ~problem in
    let before = Plan.volume_qmc ~samples (Plan.make problem assignment) in
    Format.printf "before failure: ratio %.4f volume %.6g@."
      before.Feasible.Volume.ratio before.Feasible.Volume.volume;
    for failed = 0 to nodes - 1 do
      let r = Rod.Failure.survival ~samples problem ~assignment ~failed in
      Format.printf
        "node %d fails: volume %.6g -> %.6g  survival %.3f (capacity bound %.3f)@."
        failed r.Rod.Failure.volume_before r.Rod.Failure.volume_after
        r.Rod.Failure.survival r.Rod.Failure.capacity_bound
    done;
    Format.printf "mean survival: %.4f@."
      (Rod.Failure.mean_survival ~samples problem ~assignment)
  in
  let term =
    Term.(
      const run $ graph_arg $ inputs_arg $ ops_arg $ nodes_arg $ seed_arg
      $ algorithm_arg $ samples_arg)
  in
  Cmd.v
    (Cmd.info "failure"
       ~doc:
         "What-if analysis: feasible volume surviving each single-node \
          failure after incremental recovery.")
    term

(* --- compile --- *)

(* Synthetic records carrying every declared field of each input
   schema, with Poisson arrivals at the trace's rate. *)
let synthetic_sample ~rng ~trace inputs =
  Array.of_list
    (List.map
       (fun (_, schema) ->
         List.map
           (fun ts ->
             Spe.Tuple.make ~ts
               (List.map
                  (fun (field, t) ->
                    ( field,
                      match t with
                      | Cql.Ast.T_int -> Spe.Value.Int (Random.State.int rng 1500)
                      | Cql.Ast.T_float ->
                        Spe.Value.Float (Random.State.float rng 100.)
                      | Cql.Ast.T_string ->
                        Spe.Value.Str
                          (Printf.sprintf "k%d" (Random.State.int rng 8)) ))
                  schema))
           (Workload.Generators.poisson_arrivals ~rng ~trace))
       inputs)

let compile_cmd =
  let file_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"Query-language source file.")
  in
  let place_flag =
    Arg.(
      value & flag
      & info [ "place" ]
          ~doc:
            "Profile the compiled network on synthetic data and place it with \
             ROD.")
  in
  let rate_arg =
    Arg.(
      value & opt float 150.
      & info [ "profile-rate" ] ~docv:"TPS"
          ~doc:"Synthetic tuple rate per input used for profiling.")
  in
  let run file do_place nodes seed rate =
    match Cql.Frontend.compile_file ~path:file with
    | Error e ->
      `Error (false, Printf.sprintf "%s: %s" file (Cql.Frontend.error_to_string e))
    | Ok compiled ->
      print_string (Cql.Frontend.describe compiled);
      if do_place then begin
        let rng = Random.State.make [| seed |] in
        let trace = Workload.Trace.create ~dt:1. (Array.make 10 rate) in
        let sample_inputs =
          synthetic_sample ~rng ~trace compiled.Cql.Compile.inputs
        in
        let profile =
          Spe.Profiler.profile compiled.Cql.Compile.network ~inputs:sample_inputs
        in
        let problem =
          Problem.of_graph profile.Spe.Profiler.graph
            ~caps:(Problem.homogeneous_caps ~n:nodes ~cap:1.)
        in
        let plan = Rod.Rod_algorithm.plan problem in
        Format.printf "@.%a@." Plan.pp plan;
        let est = Plan.volume_qmc ~samples:8192 plan in
        Format.printf "feasible-set ratio vs ideal: %.4f@."
          est.Feasible.Volume.ratio
      end;
      `Ok ()
  in
  let term =
    Term.(ret (const run $ file_arg $ place_flag $ nodes_arg $ seed_arg $ rate_arg))
  in
  Cmd.v
    (Cmd.info "compile"
       ~doc:
         "Compile a query-language file; optionally profile it on synthetic \
          data and place it resiliently.")
    term

(* --- analyze --- *)

let analyze_cmd =
  let file_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"PLAN"
          ~doc:
            "A cost-model graph ($(b,.rodgraph)) or a query-language source \
             file (profiled on synthetic data first).")
  in
  let cap_arg =
    Arg.(
      value & opt float 1.
      & info [ "cap" ] ~docv:"C" ~doc:"Capacity of each cluster node.")
  in
  let threshold_arg =
    Arg.(
      value & opt float 0.5
      & info [ "threshold" ] ~docv:"T"
          ~doc:"Warn when a per-axis resiliency bound falls below $(docv).")
  in
  let json_flag =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit the report as JSON (rod-plan-check/1).")
  in
  let sarif_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "sarif" ] ~docv:"PATH"
          ~doc:
            "Also write the report as SARIF 2.1.0 to $(docv) — the same \
             format tools/rodcheck emits, so both analyzers feed one code \
             scanning pipeline.")
  in
  let rate_arg =
    Arg.(
      value & opt float 150.
      & info [ "profile-rate" ] ~docv:"TPS"
          ~doc:"Synthetic tuple rate per input used when profiling a query file.")
  in
  let run file nodes cap seed rate threshold json sarif =
    let graph_result =
      if Filename.check_suffix file ".rodgraph" then (
        match Query.Graph_io.load ~path:file with
        | graph -> Ok graph
        | exception Failure message -> Error message
        | exception Invalid_argument message -> Error message)
      else
        match Cql.Frontend.compile_file ~path:file with
        | Error e ->
          Error (Printf.sprintf "%s" (Cql.Frontend.error_to_string e))
        | Ok compiled ->
          let rng = Random.State.make [| seed |] in
          let trace = Workload.Trace.create ~dt:1. (Array.make 10 rate) in
          let sample_inputs =
            synthetic_sample ~rng ~trace compiled.Cql.Compile.inputs
          in
          let profile =
            Spe.Profiler.profile compiled.Cql.Compile.network
              ~inputs:sample_inputs
          in
          Ok profile.Spe.Profiler.graph
    in
    match graph_result with
    | Error message -> `Error (false, Printf.sprintf "%s: %s" file message)
    | Ok graph ->
      let caps = Problem.homogeneous_caps ~n:nodes ~cap in
      let report = Analysis.Plan_check.check_graph ~threshold graph ~caps in
      if json then print_string (Analysis.Plan_check.to_json report)
      else Format.printf "%a@." Analysis.Plan_check.pp report;
      Option.iter
        (fun path ->
          Analysis.Sarif.write ~path
            [ Analysis.Plan_check.sarif_run ~file report ])
        sarif;
      if Analysis.Plan_check.ok report then `Ok ()
      else `Error (false, Printf.sprintf "%s: plan rejected by static analysis" file)
  in
  let term =
    Term.(
      ret
        (const run $ file_arg $ nodes_arg $ cap_arg $ seed_arg $ rate_arg
        $ threshold_arg $ json_flag $ sarif_arg))
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Statically analyze a query plan: well-formedness of the load \
          model, statically-infeasible operators, per-axis resiliency \
          bounds.  Nonzero exit when the plan is rejected.")
    term

(* --- deploy --- *)

let deploy_cmd =
  let out_dir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"DIR"
          ~doc:"Existing directory to write graph.rodgraph / plan.rodplan /                 plan.dot into.")
  in
  let run kind inputs ops_per_tree nodes seed samples polish out_dir =
    let graph = build_graph kind ~seed ~inputs ~ops_per_tree in
    let caps = Problem.homogeneous_caps ~n:nodes ~cap:1. in
    let d = Deploy.of_cost_model ~polish ~samples ~graph ~caps () in
    print_string (Deploy.describe d);
    let direction =
      Vec.ones (Query.Load_model.d_system (Query.Load_model.derive graph))
    in
    Format.printf "headroom along the all-ones rate direction: %.4g tuples/s@."
      (Deploy.headroom d ~direction);
    Option.iter
      (fun dir ->
        Deploy.save d ~dir;
        Format.printf "artifacts written to %s@." dir)
      out_dir
  in
  let term =
    Term.(
      const run $ graph_arg $ inputs_arg $ ops_arg $ nodes_arg $ seed_arg
      $ samples_arg $ polish_arg $ out_dir_arg)
  in
  Cmd.v
    (Cmd.info "deploy"
       ~doc:"Place a graph and print the full deployment summary.")
    term

(* --- replan --- *)

let replan_cmd =
  let budget_arg =
    Arg.(
      value & opt int 3
      & info [ "budget" ] ~docv:"B"
          ~doc:"Maximum migrations the replanner may propose.")
  in
  let rates_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "rates" ] ~docv:"R1,R2,..."
          ~doc:
            "Observed system rate point, tuples/s per input stream.  Default: \
             a 60%-load mean point with $(b,--drift) applied to stream 0.")
  in
  let drift_arg =
    Arg.(
      value & opt float 2.5
      & info [ "drift" ] ~docv:"F"
          ~doc:"Without $(b,--rates): scale stream 0's mean rate by $(docv).")
  in
  let run kind inputs ops_per_tree nodes seed samples budget rates drift
      metrics obs_trace prom =
    let graph = build_graph kind ~seed ~inputs ~ops_per_tree in
    let caps = Problem.homogeneous_caps ~n:nodes ~cap:1. in
    let deployment = Deploy.of_cost_model ~samples ~graph ~caps () in
    print_string (Deploy.describe deployment);
    let d_sys = Query.Load_model.d_system (Query.Load_model.derive graph) in
    let rates =
      match rates with
      | Some s ->
        Vec.of_list
          (List.map
             (fun field -> float_of_string (String.trim field))
             (String.split_on_char ',' s))
      | None ->
        let problem = deployment.Deploy.problem in
        let l = Problem.total_coefficients problem in
        let c_total = Problem.total_capacity problem in
        Vec.init d_sys (fun k ->
            let base = 0.6 *. c_total /. (float_of_int d_sys *. l.(k)) in
            if k = 0 then drift *. base else base)
    in
    if Vec.dim rates <> d_sys then
      `Error
        ( false,
          Printf.sprintf "--rates needs %d comma-separated values" d_sys )
    else begin
      Format.printf "observed rates:";
      List.iter (fun r -> Format.printf " %.2f" r) (Vec.to_list rates);
      Format.printf "@.";
      let deployment', outcome = Deploy.replan ~samples ~budget deployment ~rates in
      let pp_margin label = function
        | None -> ()
        | Some (m : Dynamic.Margin.t) ->
          Format.printf "margin %s: %.4f (max node utilization %.3f)@." label
            m.Dynamic.Margin.margin m.Dynamic.Margin.utilization
      in
      pp_margin "before" outcome.Dynamic.Replanner.margin_before;
      if outcome.Dynamic.Replanner.accepted then begin
        Format.printf
          "replan accepted: %d move(s) within budget %d, transfer cost %.3f s@."
          (List.length outcome.Dynamic.Replanner.moves)
          budget outcome.Dynamic.Replanner.cost;
        List.iter
          (fun (mv : Dynamic.Replanner.move) ->
            Format.printf "  move %s: node %d -> node %d@."
              (Query.Graph.op graph mv.Dynamic.Replanner.op).Query.Op.name
              mv.Dynamic.Replanner.from_node mv.Dynamic.Replanner.to_node)
          outcome.Dynamic.Replanner.moves;
        pp_margin "after" outcome.Dynamic.Replanner.margin_after;
        Format.printf "feasible-set ratio: %.4f -> %.4f@."
          outcome.Dynamic.Replanner.ratio_before
          outcome.Dynamic.Replanner.ratio_after;
        print_string (Deploy.describe deployment')
      end
      else
        Format.printf
          "replan rejected: no move set within budget %d improves the \
           placement at this rate point@."
          budget;
      export_obs metrics obs_trace prom;
      `Ok ()
    end
  in
  let term =
    Term.(
      ret
        (const run $ graph_arg $ inputs_arg $ ops_arg $ nodes_arg $ seed_arg
        $ samples_arg $ budget_arg $ rates_arg $ drift_arg $ metrics_arg
        $ obs_trace_arg $ prom_arg))
  in
  Cmd.v
    (Cmd.info "replan"
       ~doc:
         "Deploy a graph with ROD, then replan it online for an observed \
          rate point under a migration budget.")
    term

(* --- experiment --- *)

let experiment_cmd =
  let id_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"ID" ~doc:"Experiment id (see $(b,--list-ids)).")
  in
  let quick_arg =
    Arg.(value & flag & info [ "quick" ] ~doc:"Smaller, faster sweeps.")
  in
  let run id quick metrics obs_trace prom =
    let result =
      match Experiments.Registry.find id with
      | Some e ->
        e.Experiments.Registry.run ~quick Format.std_formatter;
        `Ok ()
      | None ->
        `Error
          ( false,
            Printf.sprintf "unknown experiment %S; available: %s" id
              (String.concat ", " (Experiments.Registry.ids ())) )
    in
    export_obs metrics obs_trace prom;
    result
  in
  let term =
    Term.(
      ret
        (const run $ id_arg $ quick_arg $ metrics_arg $ obs_trace_arg
        $ prom_arg))
  in
  Cmd.v
    (Cmd.info "experiment" ~doc:"Run one paper-reproduction experiment.")
    term

(* --- skew --- *)

let skew_cmd =
  let quick_arg =
    Arg.(
      value & flag
      & info [ "quick" ] ~doc:"Smaller key stream and sample counts.")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Print the machine-readable summary (rod-skew-summary/1).")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:"Also write the JSON summary to $(docv).")
  in
  let run quick json out metrics obs_trace prom =
    let summary =
      lazy (Experiments.Exp_skew.summary_json
              (Experiments.Exp_skew.analyze ~quick ()))
    in
    if json then print_string (Lazy.force summary)
    else Experiments.Exp_skew.run ~quick Format.std_formatter;
    Option.iter (fun path -> write_file path (Lazy.force summary)) out;
    export_obs metrics obs_trace prom
  in
  let term =
    Term.(
      const run $ quick_arg $ json_arg $ out_arg $ metrics_arg $ obs_trace_arg
      $ prom_arg)
  in
  Cmd.v
    (Cmd.info "skew"
       ~doc:
         "Profile a Zipf key stream with the rod.keyed sketches, split the \
          hot operator under each partitioner, and compare the feasible-set \
          ratios of the resulting ROD plans.")
    term

(* --- chaos --- *)

let chaos_cmd =
  let scenario_arg =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"SCENARIO"
          ~doc:"Scenario id (default: run every scenario).")
  in
  let list_arg =
    Arg.(value & flag & info [ "list" ] ~doc:"List scenarios and exit.")
  in
  let quick_arg =
    Arg.(value & flag & info [ "quick" ] ~doc:"Shorter runs, fewer samples.")
  in
  let chaos_seed_arg =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"SEED"
          ~doc:"Chaos seed: fixes workload, schedule and both engines.")
  in
  let run_one quick seed s =
    let outcome = s.Chaos.Scenario.run ~quick ~seed () in
    Format.printf "@[<v>=== %s: %s@,%s@,@]" s.Chaos.Scenario.id
      s.Chaos.Scenario.name
      (Chaos.Scenario.describe outcome);
    Chaos.Oracle.passed outcome.Chaos.Scenario.verdict
  in
  let run list quick seed scenario metrics obs_trace prom =
    let result =
      if list then begin
        List.iter
          (fun s ->
            Format.printf "%-10s %s@." s.Chaos.Scenario.id s.Chaos.Scenario.name)
          Chaos.Scenario.all;
        `Ok ()
      end
      else
        match scenario with
        | Some id -> (
          match Chaos.Scenario.find id with
          | Some s -> if run_one quick seed s then `Ok () else `Error (false, "oracle checks failed")
          | None ->
            `Error
              ( false,
                Printf.sprintf "unknown scenario %S; available: %s" id
                  (String.concat ", "
                     (List.map (fun s -> s.Chaos.Scenario.id) Chaos.Scenario.all))
              ))
        | None ->
          let ok =
            List.fold_left
              (fun acc s -> run_one quick seed s && acc)
              true Chaos.Scenario.all
          in
          if ok then `Ok () else `Error (false, "oracle checks failed")
    in
    (* Telemetry is exported even when an oracle fails — a failing run
       is exactly the one whose trace is worth opening. *)
    export_obs metrics obs_trace prom;
    result
  in
  let term =
    Term.(
      ret
        (const run $ list_arg $ quick_arg $ chaos_seed_arg $ scenario_arg
        $ metrics_arg $ obs_trace_arg $ prom_arg))
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Run seeded fault-injection scenarios and judge them with the \
          differential oracles.")
    term

let main_cmd =
  let doc = "Resilient Operator Distribution for distributed stream processing" in
  let info = Cmd.info "rod-cli" ~version:"1.0.0" ~doc in
  Cmd.group info
    [
      place_cmd; volume_cmd; trace_cmd; simulate_cmd; sim_cmd; cluster_cmd;
      optimal_cmd; compile_cmd; analyze_cmd; failure_cmd; deploy_cmd;
      replan_cmd; experiment_cmd; skew_cmd; chaos_cmd;
    ]

let () = exit (Cmd.eval main_cmd)
