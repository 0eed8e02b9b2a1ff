(* Tests of the domain pool: range coverage, exception propagation, and
   sequential-vs-parallel equivalence of the three rewired hot paths
   (volume estimation, local search, exhaustive optimum). *)

module Pool = Parallel.Pool
module Vec = Linalg.Vec
module Problem = Rod.Problem

let with_pool ways f =
  let pool = Pool.create ways in
  Fun.protect ~finally:(fun () -> if ways > 1 then Pool.shutdown pool) (fun () -> f pool)

(* Every pool size must cover [0, n) exactly once, for ranges smaller
   than, equal to, and coarser than the chunk count. *)
let test_parallel_for_coverage () =
  List.iter
    (fun ways ->
      with_pool ways (fun pool ->
          List.iter
            (fun n ->
              let hits = Array.make (max n 1) 0 in
              Pool.parallel_for pool ~n (fun lo hi ->
                  for i = lo to hi - 1 do
                    hits.(i) <- hits.(i) + 1
                  done);
              let name = Printf.sprintf "ways=%d n=%d" ways n in
              Alcotest.(check bool)
                (name ^ " covered once") true
                (Array.for_all (fun c -> c <= 1) hits
                && Array.to_list hits
                   |> List.filteri (fun i _ -> i < n)
                   |> List.for_all (fun c -> c = 1)))
            [ 1; 2; 3; 7; 64 ]))
    [ 1; 2; 4 ]

let test_parallel_for_empty () =
  with_pool 4 (fun pool ->
      let calls = ref 0 in
      Pool.parallel_for pool ~n:0 (fun _ _ -> incr calls);
      Pool.parallel_for pool ~n:(-5) (fun _ _ -> incr calls);
      Alcotest.(check int) "no chunk on empty range" 0 !calls)

let test_parallel_for_remainders () =
  (* 10 indices over 4 ways: chunk sizes must differ by at most one and
     the chunks must tile the range in order. *)
  with_pool 4 (fun pool ->
      let ranges = ref [] in
      let mutex = Mutex.create () in
      Pool.parallel_for pool ~n:10 (fun lo hi ->
          Mutex.lock mutex;
          ranges := (lo, hi) :: !ranges;
          Mutex.unlock mutex);
      let ranges = List.sort compare !ranges in
      Alcotest.(check (list (pair int int)))
        "even split with remainders"
        [ (0, 2); (2, 5); (5, 7); (7, 10) ]
        ranges)

exception Boom of int

let test_exception_propagation () =
  with_pool 4 (fun pool ->
      let raised =
        try
          Pool.parallel_for pool ~n:100 (fun lo hi ->
              if lo <= 42 && 42 < hi then raise (Boom lo));
          None
        with Boom lo -> Some lo
      in
      Alcotest.(check bool) "exception escaped the pool" true (raised <> None);
      (* The pool survives a failed batch. *)
      let total =
        Pool.map_reduce pool ~n:100
          ~map:(fun lo hi ->
            let acc = ref 0 in
            for i = lo to hi - 1 do
              acc := !acc + i
            done;
            !acc)
          ~combine:( + ) ~init:0
      in
      Alcotest.(check int) "pool usable after exception" 4950 total)

let test_run_ordered () =
  with_pool 3 (fun pool ->
      let results =
        Pool.run pool (List.init 7 (fun i () -> (i * i) + 1))
      in
      Alcotest.(check (list int)) "ordered results"
        [ 1; 2; 5; 10; 17; 26; 37 ] results)

let test_default_ways_env () =
  Unix.putenv "ROD_NUM_DOMAINS" "3";
  Alcotest.(check int) "env respected" 3 (Pool.default_ways ());
  Unix.putenv "ROD_NUM_DOMAINS" "0";
  Alcotest.(check int) "clamped to 1" 1 (Pool.default_ways ());
  Unix.putenv "ROD_NUM_DOMAINS" "nope";
  Alcotest.check_raises "garbage rejected"
    (Invalid_argument "ROD_NUM_DOMAINS: not an integer: \"nope\"") (fun () ->
      ignore (Pool.default_ways ()));
  Unix.putenv "ROD_NUM_DOMAINS" "1"

let fixture ~m ~d ~n_nodes =
  let rng = Random.State.make [| 4242 |] in
  let graph =
    Query.Randgraph.generate_trees ~rng ~n_inputs:d ~ops_per_tree:(m / d)
  in
  Problem.of_graph graph ~caps:(Problem.homogeneous_caps ~n:n_nodes ~cap:1.)

(* Halton samples are index-addressed, so the parallel feasible count
   must match the sequential one bit for bit, for every pool size. *)
let test_volume_equivalence () =
  let problem = fixture ~m:30 ~d:3 ~n_nodes:4 in
  let plan = Rod.Rod_algorithm.plan problem in
  let ln = Rod.Plan.node_loads plan in
  let caps = problem.Problem.caps in
  let reference =
    Feasible.Volume.estimate_with
      ~next_cube_point:(fun i -> Feasible.Halton.point ~dim:3 i)
      ~ln ~caps ~samples:4096 ()
  in
  List.iter
    (fun ways ->
      with_pool ways (fun pool ->
          let est = Feasible.Volume.ratio_qmc ~pool ~ln ~caps ~samples:4096 () in
          let name = Printf.sprintf "ways=%d" ways in
          Alcotest.(check int)
            (name ^ " feasible count") reference.Feasible.Volume.feasible_samples
            est.Feasible.Volume.feasible_samples;
          Alcotest.check (Alcotest.float 0.) (name ^ " ratio bit-identical")
            reference.Feasible.Volume.ratio est.Feasible.Volume.ratio))
    [ 1; 2; 4 ]

(* The scorer's sample shards reduce to exact integers, so the whole
   local-search trajectory — assignment, ratio, move and pass counts —
   is independent of the pool size. *)
let test_local_search_equivalence () =
  let problem = fixture ~m:24 ~d:3 ~n_nodes:4 in
  let start = Array.init 24 (fun j -> j mod 2) in
  (* A fresh copy per pool size: the QMC load table is cached on the
     problem, and every pool size must build its own. *)
  let outcomes =
    List.map
      (fun ways ->
        let problem =
          Problem.create ~lo:problem.Problem.lo ~caps:problem.Problem.caps
        in
        with_pool ways (fun pool ->
            Rod.Local_search.improve ~pool ~samples:512 problem start))
      [ 1; 2; 4 ]
  in
  match outcomes with
  | [ a; b; c ] ->
    List.iter
      (fun (name, o) ->
        Alcotest.(check (array int))
          (name ^ " assignment") a.Rod.Local_search.assignment
          o.Rod.Local_search.assignment;
        Alcotest.check (Alcotest.float 0.) (name ^ " ratio")
          a.Rod.Local_search.ratio o.Rod.Local_search.ratio;
        Alcotest.(check int) (name ^ " moves") a.Rod.Local_search.moves
          o.Rod.Local_search.moves;
        Alcotest.(check int) (name ^ " passes") a.Rod.Local_search.passes
          o.Rod.Local_search.passes)
      [ ("ways=2", b); ("ways=4", c) ]
  | _ -> assert false

(* All parallel pools share one fixed subtree decomposition and an
   ordered merge, so the exhaustive search is pool-size deterministic. *)
let test_optimal_equivalence () =
  let problem = fixture ~m:8 ~d:2 ~n_nodes:2 in
  let results =
    List.map
      (fun ways ->
        with_pool ways (fun pool ->
            Rod.Optimal.search ~samples:256 ~pool problem))
      [ 1; 2; 4 ]
  in
  match results with
  | [ a; b; c ] ->
    List.iter
      (fun (name, r) ->
        Alcotest.(check (array int))
          (name ^ " assignment") a.Rod.Optimal.assignment
          r.Rod.Optimal.assignment;
        Alcotest.check (Alcotest.float 0.) (name ^ " ratio")
          a.Rod.Optimal.ratio r.Rod.Optimal.ratio;
        Alcotest.(check int) (name ^ " explored") a.Rod.Optimal.explored
          r.Rod.Optimal.explored)
      [ ("ways=2", b); ("ways=4", c) ]
  | _ -> assert false

let suite =
  [
    Alcotest.test_case "parallel_for coverage" `Quick test_parallel_for_coverage;
    Alcotest.test_case "parallel_for empty range" `Quick test_parallel_for_empty;
    Alcotest.test_case "parallel_for remainders" `Quick
      test_parallel_for_remainders;
    Alcotest.test_case "exception propagation" `Quick test_exception_propagation;
    Alcotest.test_case "run keeps order" `Quick test_run_ordered;
    Alcotest.test_case "ROD_NUM_DOMAINS parsing" `Quick test_default_ways_env;
    Alcotest.test_case "volume seq = parallel (1/2/4)" `Quick
      test_volume_equivalence;
    Alcotest.test_case "local search seq = parallel (1/2/4)" `Quick
      test_local_search_equivalence;
    Alcotest.test_case "optimal seq = parallel (1/2/4)" `Quick
      test_optimal_equivalence;
  ]
