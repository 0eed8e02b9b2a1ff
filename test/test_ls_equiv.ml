(* Equivalence suite for the fused read-only local-search rewrite.

   Two obligations: (1) the new sweeps must reproduce the historical
   mutate-and-undo driver (ls_reference.ml) bit for bit — assignment,
   ratio, move and pass counts — at pool sizes 1/2/4, including
   degenerate shapes; (2) the read-only primitives (gain, swap_gain,
   relocation_gains) must equal the feasibility delta that actually
   performing the move reports, on random problems. *)

module Pool = Parallel.Pool
module Vec = Linalg.Vec
module Mat = Linalg.Mat
module Problem = Rod.Problem
module LS = Rod.Local_search

let with_pool ways f =
  let pool = Pool.create ways in
  Fun.protect
    ~finally:(fun () -> if ways > 1 then Pool.shutdown pool)
    (fun () -> f pool)

let fixture ?(seed = 4242) ~m ~d ~n_nodes ~cap () =
  let rng = Random.State.make [| seed |] in
  let graph =
    Query.Randgraph.generate_trees ~rng ~n_inputs:d ~ops_per_tree:(m / d)
  in
  Problem.of_graph graph ~caps:(Problem.homogeneous_caps ~n:n_nodes ~cap)

let check_equal name reference outcome =
  Alcotest.(check (array int))
    (name ^ " assignment") reference.LS.assignment outcome.LS.assignment;
  Alcotest.check (Alcotest.float 0.) (name ^ " ratio") reference.LS.ratio
    outcome.LS.ratio;
  Alcotest.(check int) (name ^ " moves") reference.LS.moves outcome.LS.moves;
  Alcotest.(check int) (name ^ " passes") reference.LS.passes outcome.LS.passes

(* The QMC load table is cached on the problem, so each run gets a
   fresh copy: every pool size builds its own table. *)
let fresh problem =
  Problem.create ~lo:problem.Problem.lo ~caps:problem.Problem.caps

let equiv ~name ?(samples = 512) ?max_passes problem start =
  List.iter
    (fun ways ->
      with_pool ways (fun pool ->
          let reference =
            Ls_reference.improve ~pool ~samples ?max_passes (fresh problem)
              start
          in
          let outcome =
            LS.improve ~pool ~samples ?max_passes (fresh problem) start
          in
          check_equal (Printf.sprintf "%s ways=%d" name ways) reference outcome))
    [ 1; 2; 4 ]

(* A pile-up start (everything on node 0) drives long relocation runs;
   the alternating start leaves work for the swap sweep too. *)
let test_equiv_random_starts () =
  let problem = fixture ~m:24 ~d:3 ~n_nodes:4 ~cap:1. () in
  equiv ~name:"pile-up" problem (Array.make 24 0);
  equiv ~name:"alternating" problem (Array.init 24 (fun j -> j mod 2))

let test_equiv_rod_start () =
  let problem = fixture ~m:30 ~d:3 ~n_nodes:5 ~cap:1. () in
  equiv ~name:"rod-start" problem (Rod.Rod_algorithm.place problem)

let test_equiv_degenerate () =
  (* Single operator. *)
  let p1 = fixture ~m:1 ~d:1 ~n_nodes:2 ~cap:1. () in
  equiv ~name:"m=1" ~samples:128 p1 [| 0 |];
  (* Single node: no relocation candidate, no swappable pair. *)
  let p2 = fixture ~m:8 ~d:2 ~n_nodes:1 ~cap:1. () in
  equiv ~name:"n=1" ~samples:128 p2 (Array.make 8 0);
  (* Single sample. *)
  let p3 = fixture ~m:12 ~d:2 ~n_nodes:3 ~cap:1. () in
  equiv ~name:"samples=1" ~samples:1 p3 (Array.make 12 0);
  (* Capacities so tight every sample violates everywhere: nothing can
     ever gain, so the skip index must reach the same quiet single pass
     as grinding through the mutate-and-undo evaluation. *)
  let p4 = fixture ~m:12 ~d:2 ~n_nodes:3 ~cap:1e-9 () in
  equiv ~name:"all-infeasible" ~samples:128 p4 (Array.make 12 0);
  (* Pass cap of 1 stops mid-climb; both paths must stop at the same
     intermediate state. *)
  let p5 = fixture ~m:24 ~d:3 ~n_nodes:4 ~cap:1. () in
  equiv ~name:"max_passes=1" ~max_passes:1 p5 (Array.make 24 0)

(* --- property checks of the read-only primitives ------------------- *)

(* Random dense problems plus a random starting assignment.  Loads are
   strictly positive (no all-zero column) and capacities strictly
   positive, per the Problem.t invariants the skip index relies on. *)
let instance_gen =
  QCheck.Gen.(
    let* m = 2 -- 8 in
    let* d = 1 -- 3 in
    let* n = 2 -- 4 in
    let* entries = array_size (return (m * d)) (float_range 0.05 1.) in
    let* caps = array_size (return n) (float_range 0.2 2.) in
    let* assignment = array_size (return m) (0 -- (n - 1)) in
    let lo = Array.init m (fun j -> Array.sub entries (j * d) d) in
    return (lo, caps, assignment))

let print_instance (lo, caps, assignment) =
  Format.asprintf "lo = %a caps = %a assignment = %s" Mat.pp
    (Mat.of_arrays lo) Vec.pp caps
    (String.concat ";" (Array.to_list (Array.map string_of_int assignment)))

let arbitrary_instance = QCheck.make ~print:print_instance instance_gen

let samples = 64

(* gain j ~to_node must equal feasible-after-move minus feasible-before
   — measured by really moving (and moving back before the next probe;
   any float drift the undo leaves behind is part of the state both
   sides then read, so the comparison stays exact). *)
let prop_gain_matches_move =
  QCheck.Test.make ~name:"gain = feasible delta of the move" ~count:60
    arbitrary_instance (fun (lo, caps, assignment) ->
      let problem = Problem.create ~lo:(Mat.of_arrays lo) ~caps in
      let m = Problem.n_ops problem and n = Problem.n_nodes problem in
      List.for_all
        (fun ways ->
          with_pool ways (fun pool ->
              let scorer = LS.make_scorer ~pool problem assignment samples in
              let ok = ref true in
              for j = 0 to m - 1 do
                let home = assignment.(j) in
                for i = 0 to n - 1 do
                  if i <> home then begin
                    let predicted = LS.gain scorer j ~to_node:i in
                    let before = LS.feasible scorer in
                    LS.move scorer j ~from_node:home ~to_node:i;
                    let actual = LS.feasible scorer - before in
                    LS.move scorer j ~from_node:i ~to_node:home;
                    if predicted <> actual then ok := false
                  end
                done
              done;
              !ok))
        [ 1; 4 ])

let prop_swap_gain_matches_moves =
  QCheck.Test.make ~name:"swap_gain = feasible delta of the exchange"
    ~count:60 arbitrary_instance (fun (lo, caps, assignment) ->
      let problem = Problem.create ~lo:(Mat.of_arrays lo) ~caps in
      let m = Problem.n_ops problem in
      with_pool 1 (fun pool ->
          let scorer = LS.make_scorer ~pool problem assignment samples in
          let ok = ref true in
          for j1 = 0 to m - 1 do
            for j2 = j1 + 1 to m - 1 do
              let a = assignment.(j1) and b = assignment.(j2) in
              if a <> b then begin
                let predicted = LS.swap_gain scorer j1 j2 in
                let before = LS.feasible scorer in
                LS.move scorer j1 ~from_node:a ~to_node:b;
                LS.move scorer j2 ~from_node:b ~to_node:a;
                let actual = LS.feasible scorer - before in
                LS.move scorer j1 ~from_node:b ~to_node:a;
                LS.move scorer j2 ~from_node:a ~to_node:b;
                if predicted <> actual then ok := false
              end
            done
          done;
          !ok))

(* The fused kernel must agree with the scalar primitive on every
   target, and stay below the positive bound that gates it. *)
let prop_fused_matches_gain =
  QCheck.Test.make ~name:"relocation_gains = gain per target, <= bound"
    ~count:60 arbitrary_instance (fun (lo, caps, assignment) ->
      let problem = Problem.create ~lo:(Mat.of_arrays lo) ~caps in
      let m = Problem.n_ops problem and n = Problem.n_nodes problem in
      List.for_all
        (fun ways ->
          with_pool ways (fun pool ->
              let scorer = LS.make_scorer ~pool problem assignment samples in
              let ok = ref true in
              for j = 0 to m - 1 do
                let gains = Array.copy (LS.relocation_gains scorer j) in
                let bound = LS.relocation_positive_bound scorer j in
                for i = 0 to n - 1 do
                  if gains.(i) <> LS.gain scorer j ~to_node:i then ok := false;
                  if gains.(i) > bound then ok := false
                done
              done;
              !ok))
        [ 1; 4 ])

(* --- the per-problem load table and the near-feasible index ------- *)

(* A warm problem (its table already built) must give exactly what a
   fresh copy gives: the polish, then a replan whose repair attempt
   and volume-only retry both reuse the table. *)
let test_cache_invisible_replan () =
  let problem = fixture ~m:40 ~d:3 ~n_nodes:5 ~cap:1. () in
  let start = Rod.Rod_algorithm.place problem in
  let d = Problem.dim problem in
  let l = Problem.total_coefficients problem in
  let c_total = Problem.total_capacity problem in
  (* Past capacity along stream 0, so the replanner starts at a
     negative margin. *)
  let rates =
    Vec.init d (fun k ->
        let base = c_total /. (float_of_int d *. l.(k)) in
        if k = 0 then 2. *. base else 0.8 *. base)
  in
  let cost_of j = 0.01 *. float_of_int (j mod 3) in
  let polish p = LS.improve ~samples:512 p start in
  let replan p =
    Dynamic.Replanner.replan ~samples:512 ~rates ~budget:4 ~cost_of p
      ~assignment:start
  in
  let warm_polish = polish problem in
  let warm_replan = replan problem in
  check_equal "improve warm/fresh" (polish (fresh problem)) warm_polish;
  let fresh_replan = replan (fresh problem) in
  let open Dynamic.Replanner in
  Alcotest.(check bool) "replan moved" true (fresh_replan.moves <> []);
  Alcotest.(check bool) "replan accepted" fresh_replan.accepted
    warm_replan.accepted;
  Alcotest.(check bool) "replan moves" true (fresh_replan.moves = warm_replan.moves);
  Alcotest.(check (array int))
    "replan assignment" fresh_replan.assignment warm_replan.assignment;
  Alcotest.check (Alcotest.float 0.) "replan ratio before"
    fresh_replan.ratio_before warm_replan.ratio_before;
  Alcotest.check (Alcotest.float 0.) "replan ratio after"
    fresh_replan.ratio_after warm_replan.ratio_after

(* One entry per problem: switching the sample count replaces the
   table, and switching back rebuilds the first one bit for bit. *)
let test_cache_alternating_samples () =
  let problem = fixture ~m:24 ~d:3 ~n_nodes:4 ~cap:1. () in
  let start = Array.make 24 0 in
  List.iter
    (fun samples ->
      let name = Printf.sprintf "samples=%d" samples in
      check_equal name
        (LS.improve ~samples (fresh problem) start)
        (LS.improve ~samples problem start))
    [ 512; 256; 512 ]

(* The brute-force bound: every sample, on a mirror of the scorer's
   node loads kept with the scorer's own float operations (the initial
   left-to-right accumulation of [make_scorer], then [before +. (sign
   *. c)] per shift), so the mirror is exact, not approximate. *)
let full_scan_bound ~table ~caps node_load assignment j =
  let home = assignment.(j) in
  let count = ref 0 in
  for s = 0 to samples - 1 do
    let v = ref 0 in
    Array.iteri (fun i row -> if row.(s) > caps.(i) then incr v) node_load;
    let h = node_load.(home).(s) in
    if !v = 1 && h > caps.(home) && h -. table.(j).(s) <= caps.(home) then
      incr count
  done;
  !count

let shift_mirror node_load table j i sign =
  let row = node_load.(i) and c = table.(j) in
  for s = 0 to samples - 1 do
    row.(s) <- row.(s) +. (sign *. c.(s))
  done

let moves_gen = QCheck.Gen.(list_size (1 -- 12) (pair (0 -- 1000) (0 -- 1000)))

let arbitrary_walk =
  QCheck.make
    ~print:(fun (inst, moves) ->
      print_instance inst ^ " moves = "
      ^ String.concat ";"
          (List.map (fun (j, i) -> Printf.sprintf "%d->%d" j i) moves))
    QCheck.Gen.(pair instance_gen moves_gen)

(* Queries interleaved with moves: every move leaves the near-feasible
   index stale, and the next bound query must rebuild it exactly. *)
let prop_bound_exact_after_moves =
  QCheck.Test.make ~name:"relocation bound = full scan after every move"
    ~count:60 arbitrary_walk (fun ((lo, caps, start), walk) ->
      List.for_all
        (fun ways ->
          with_pool ways (fun pool ->
              let problem = Problem.create ~lo:(Mat.of_arrays lo) ~caps in
              let m = Problem.n_ops problem and n = Problem.n_nodes problem in
              let assignment = Array.copy start in
              let scorer = LS.make_scorer ~pool problem assignment samples in
              let table =
                match Atomic.get problem.Problem.load_table with
                | Some (_, table) -> table
                | None -> assert false
              in
              let node_load = Array.init n (fun _ -> Array.make samples 0.) in
              Array.iteri (fun j i -> shift_mirror node_load table j i 1.) start;
              let exact () =
                List.for_all
                  (fun j ->
                    let bound = LS.relocation_positive_bound scorer j in
                    bound = full_scan_bound ~table ~caps node_load assignment j
                    && Array.for_all
                         (fun g -> g <= bound)
                         (LS.relocation_gains scorer j))
                  (List.init m Fun.id)
              in
              exact ()
              && List.for_all
                   (fun (j, i) ->
                     let j = j mod m and to_node = i mod n in
                     let from_node = assignment.(j) in
                     LS.move scorer j ~from_node ~to_node;
                     shift_mirror node_load table j from_node (-1.);
                     shift_mirror node_load table j to_node 1.;
                     assignment.(j) <- to_node;
                     exact ())
                   walk))
        [ 1; 4 ])

let suite =
  [
    Alcotest.test_case "old = new: random starts (1/2/4)" `Quick
      test_equiv_random_starts;
    Alcotest.test_case "old = new: ROD start (1/2/4)" `Quick
      test_equiv_rod_start;
    Alcotest.test_case "old = new: degenerate shapes (1/2/4)" `Quick
      test_equiv_degenerate;
    Alcotest.test_case "cached table: improve + replan warm = fresh" `Quick
      test_cache_invisible_replan;
    Alcotest.test_case "cached table: samples 512/256/512 = fresh" `Quick
      test_cache_alternating_samples;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        prop_gain_matches_move;
        prop_swap_gain_matches_moves;
        prop_fused_matches_gain;
        prop_bound_exact_after_moves;
      ]
