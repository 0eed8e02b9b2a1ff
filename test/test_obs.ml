(* Tests of the rod.obs observability layer: histogram bucket-edge
   semantics, registry discipline, golden snapshots of the three
   exporters (with a promotion path via .actual files), the double-run
   determinism pin over a real instrumented deployment, and QCheck
   properties of the instruments. *)

module Counter = Obs.Counter
module Gauge = Obs.Gauge
module Histogram = Obs.Histogram
module Registry = Obs.Registry

(* --- histogram bucket edges --- *)

let test_histogram_edges () =
  let h = Histogram.make [| 1.; 2.; 5. |] in
  List.iter (Histogram.observe h) [ 1.; 2.; 5.; 5.1; -3. ];
  (* Prometheus le semantics: a boundary value lands in the bucket it
     bounds; anything above the last bound goes to the +Inf bucket. *)
  Alcotest.(check (array int))
    "boundary values land in the bucket they bound" [| 2; 1; 1; 1 |]
    (Histogram.bucket_counts h);
  Alcotest.(check int) "count" 5 (Histogram.count h);
  Alcotest.(check (float 1e-9)) "sum" 10.1 (Histogram.sum h)

let test_histogram_empty () =
  let h = Histogram.make [| 1.; 2. |] in
  Alcotest.(check int) "empty count" 0 (Histogram.count h);
  Alcotest.(check (float 0.)) "empty p50" 0. (Histogram.p50 h);
  Alcotest.(check (float 0.)) "empty p99" 0. (Histogram.p99 h);
  Alcotest.(check bool) "quantile outside [0,1] raises" true
    (match Histogram.quantile h 1.5 with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_histogram_single () =
  (* A single sample interpolates inside its covering bucket... *)
  let h = Histogram.make [| 1.; 2.; 5. |] in
  Histogram.observe h 3.7;
  Alcotest.(check (float 1e-9)) "p50 is the midpoint of (2,5]" 3.5
    (Histogram.p50 h);
  (* ...in the first bucket the lower edge clamps to the observed
     minimum... *)
  let h = Histogram.make [| 1.; 2.; 5. |] in
  Histogram.observe h 0.5;
  Alcotest.(check (float 1e-9)) "first-bucket lo clamps to min" 0.75
    (Histogram.p50 h);
  (* ...and a sample in the overflow bucket reports the largest finite
     bound. *)
  let h = Histogram.make [| 1.; 2.; 5. |] in
  Histogram.observe h 100.;
  Alcotest.(check (float 1e-9)) "overflow clamps to last bound" 5.
    (Histogram.p50 h)

let test_histogram_validation () =
  let bad upper =
    match Histogram.make upper with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "empty bounds rejected" true (bad [||]);
  Alcotest.(check bool) "non-increasing bounds rejected" true (bad [| 1.; 1. |]);
  Alcotest.(check bool) "non-finite bound rejected" true
    (bad [| 1.; Float.infinity |]);
  Alcotest.(check bool) "merge with different bounds rejected" true
    (let a = Histogram.make [| 1.; 2. |] and b = Histogram.make [| 1.; 3. |] in
     match Histogram.merge_into ~into:a b with
     | () -> false
     | exception Invalid_argument _ -> true)

(* --- registry discipline --- *)

let test_registry_discipline () =
  let r = Registry.create () in
  (* Label order does not matter: both spellings are one instrument. *)
  let c1 = Registry.counter r ~labels:[ ("b", "2"); ("a", "1") ] "x_total" in
  let c2 = Registry.counter r ~labels:[ ("a", "1"); ("b", "2") ] "x_total" in
  Counter.incr c1;
  Counter.incr c2;
  Alcotest.(check int) "same instrument under label reorder" 2
    (Counter.value c1);
  Alcotest.(check int) "one registration" 1 (Registry.size r);
  Alcotest.(check bool) "kind mismatch raises" true
    (match Registry.gauge r ~labels:[ ("a", "1"); ("b", "2") ] "x_total" with
    | _ -> false
    | exception Invalid_argument _ -> true);
  Alcotest.(check bool) "invalid metric name raises" true
    (match Registry.counter r "1bad" with
    | _ -> false
    | exception Invalid_argument _ -> true);
  Alcotest.(check bool) "negative counter increment raises" true
    (match Counter.add c1 (-1) with
    | () -> false
    | exception Invalid_argument _ -> true);
  (* Snapshots sort by name then labels, whatever the registration
     order. *)
  ignore (Registry.counter r "a_total");
  let names =
    List.map (fun s -> s.Obs.Metric.s_name) (Registry.snapshot r)
  in
  Alcotest.(check (list string)) "snapshot sorted" [ "a_total"; "x_total" ]
    names

(* --- golden exporter snapshots --- *)

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

(* A small registry covering every exporter branch: bare counter,
   labeled counter family, gauge, label-value escaping, histogram with
   an overflowing sample. *)
let golden_snapshot () =
  let r = Registry.create () in
  let c = Registry.counter r ~help:"Requests served" "rod_test_requests_total" in
  Counter.add c 42;
  let c1 =
    Registry.counter r ~labels:[ ("class", "1") ] ~help:"Ops by class"
      "rod_test_ops_total"
  in
  Counter.add c1 7;
  Counter.add (Registry.counter r ~labels:[ ("class", "2") ] "rod_test_ops_total") 3;
  Gauge.set (Registry.gauge r ~help:"Queue depth" "rod_test_queue_depth") 3.5;
  Gauge.set
    (Registry.gauge r
       ~labels:[ ("path", "a\\b\"c\nd") ]
       ~help:"Label escaping" "rod_test_escape")
    1.;
  let h =
    Registry.histogram r ~buckets:[| 0.1; 1.; 10. |] ~help:"Latency"
      "rod_test_latency_seconds"
  in
  List.iter (Histogram.observe h) [ 0.05; 0.1; 0.5; 2.; 20. ];
  Registry.snapshot r

let golden_events () =
  let t = Obs.Span.create ~clock:(Obs.Clock.manual ()) () in
  Obs.Span.emit t ~cat:"place" ~args:[ ("ops", "4") ] ~ts:0. ~dur:0.25
    "rod.place";
  Obs.Span.emit t ~cat:"sim" ~ts:0.1 ~dur:1.5 "sim.run";
  Obs.Span.instant t ~cat:"fault" ~args:[ ("node", "1") ] ~ts:0.75
    "fault.crash";
  Obs.Span.emit t ~track:2 ~cat:"sim" ~ts:0.75 ~dur:0.1 "sim.migrate";
  Obs.Span.events t

let check_golden ~fixture actual =
  let path = Filename.concat "fixtures/obs" fixture in
  (* Mismatches land in the temp dir, never the CWD: running the test
     binary from the repo root must not litter the source tree with
     .actual files. *)
  let actual_path =
    Filename.concat (Filename.get_temp_dir_name ()) (fixture ^ ".actual")
  in
  let promote =
    Printf.sprintf "cp %s test/fixtures/obs/%s" actual_path fixture
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

let test_golden_metrics_json () =
  check_golden ~fixture:"metrics.json"
    (Obs.Export.metrics_json (golden_snapshot ()))

let test_golden_prometheus () =
  check_golden ~fixture:"metrics.prom"
    (Obs.Export.prometheus (golden_snapshot ()))

let test_golden_trace () =
  check_golden ~fixture:"trace.trace.json"
    (Obs.Export.trace_json (golden_events ()))

(* --- double-run determinism over real instrumentation --- *)

(* A full deployment (analysis gate, ROD placement, local-search
   polish, QMC volume) exercises the spans and counters wired through
   lib/core, lib/feasible and lib/deploy.  Two runs from a reset
   registry must export byte-identical artifacts — the property the
   CLI-level acceptance check (sim --seed N twice) also pins. *)
let deploy_exports () =
  Obs.reset ();
  let graph = Query.Graph_io.load ~path:"fixtures/clean.rodgraph" in
  let caps = Rod.Problem.homogeneous_caps ~n:2 ~cap:1. in
  let deployment = Deploy.of_cost_model ~polish:true ~samples:512 ~graph ~caps () in
  ignore deployment;
  ( Obs.Export.metrics_json (Obs.snapshot ()),
    Obs.Export.prometheus (Obs.snapshot ()),
    Obs.Export.trace_json (Obs.events ()) )

let test_double_run_determinism () =
  let m1, p1, t1 = deploy_exports () in
  let m2, p2, t2 = deploy_exports () in
  Alcotest.(check string) "metrics json byte-identical" m1 m2;
  Alcotest.(check string) "prometheus byte-identical" p1 p2;
  Alcotest.(check string) "trace byte-identical" t1 t2;
  Alcotest.(check bool) "trace is non-trivial" true (String.length t1 > 100)

(* --- QCheck properties --- *)

let prop_counter_monotone =
  QCheck.Test.make ~name:"counter: monotone, value = sum of increments"
    ~count:200
    QCheck.(list small_nat)
    (fun increments ->
      let r = Registry.create () in
      let c = Registry.counter r "m_total" in
      let monotone = ref true in
      let prev = ref 0 in
      List.iter
        (fun k ->
          Counter.add c k;
          let v = Counter.value c in
          if v < !prev then monotone := false;
          prev := v)
        increments;
      !monotone && Counter.value c = List.fold_left ( + ) 0 increments)

let prop_gauge_last_write =
  QCheck.Test.make ~name:"gauge: last write wins" ~count:200
    QCheck.(list (int_range (-1000) 1000))
    (fun writes ->
      let r = Registry.create () in
      let g = Registry.gauge r "depth" in
      List.iter (fun v -> Gauge.set g (float_of_int v)) writes;
      match List.rev writes with
      | [] -> Gauge.value g = 0.
      | last :: _ -> Gauge.value g = float_of_int last)

(* Integer-valued observations keep float sums exact, so conservation
   can be checked with [=] rather than a tolerance. *)
let prop_histogram_conservation =
  QCheck.Test.make ~name:"histogram: count and sum are conserved" ~count:200
    QCheck.(list (int_range (-100) 100))
    (fun xs ->
      let h = Histogram.make [| -50.; 0.; 50. |] in
      List.iter (fun x -> Histogram.observe h (float_of_int x)) xs;
      Histogram.count h = List.length xs
      && Histogram.sum h = List.fold_left (fun acc x -> acc +. float_of_int x) 0. xs
      && Array.fold_left ( + ) 0 (Histogram.bucket_counts h) = List.length xs)

let prop_merge_commutative =
  QCheck.Test.make
    ~name:"histogram: per-domain shard merge is commutative" ~count:200
    QCheck.(pair (list (int_range (-100) 100)) (list (int_range (-100) 100)))
    (fun (xs, ys) ->
      let bounds = [| -50.; 0.; 50. |] in
      let fill zs =
        let h = Histogram.make bounds in
        List.iter (fun z -> Histogram.observe h (float_of_int z)) zs;
        h
      in
      let merged order =
        let into = Histogram.make bounds in
        List.iter (fun s -> Histogram.merge_into ~into s) order;
        into
      in
      let ab = merged [ fill xs; fill ys ] in
      let ba = merged [ fill ys; fill xs ] in
      Histogram.bucket_counts ab = Histogram.bucket_counts ba
      && Histogram.count ab = Histogram.count ba
      && Histogram.sum ab = Histogram.sum ba
      && Histogram.p99 ab = Histogram.p99 ba)

let suite =
  [
    Alcotest.test_case "histogram: bucket edges" `Quick test_histogram_edges;
    Alcotest.test_case "histogram: empty" `Quick test_histogram_empty;
    Alcotest.test_case "histogram: single sample" `Quick test_histogram_single;
    Alcotest.test_case "histogram: validation" `Quick test_histogram_validation;
    Alcotest.test_case "registry: discipline" `Quick test_registry_discipline;
    Alcotest.test_case "golden: metrics json" `Quick test_golden_metrics_json;
    Alcotest.test_case "golden: prometheus" `Quick test_golden_prometheus;
    Alcotest.test_case "golden: chrome trace" `Quick test_golden_trace;
    Alcotest.test_case "double-run determinism" `Quick
      test_double_run_determinism;
  ]
  @ List.map (fun t -> QCheck_alcotest.to_alcotest ~rand:(Test_rand.get ()) t)
      [
        prop_counter_monotone; prop_gauge_last_write;
        prop_histogram_conservation; prop_merge_commutative;
      ]
