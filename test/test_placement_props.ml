(* QCheck property sweep across the placement stack: ROD's class-I
   invariant, equivariance under node relabeling, failure index
   arithmetic, and the volume estimator's monotonicity/scaling laws. *)

module Vec = Linalg.Vec
module Mat = Linalg.Mat
module Problem = Rod.Problem
module Plan = Rod.Plan

(* Random problems: strictly positive load coefficients (no all-zero
   column) over a few operators, rate variables and nodes.  Capacities
   are dyadic (k/4) and pairwise distinct, so capacity sums are exact in
   floating point (node-order independent) and argmax tie-breaks never
   depend on node numbering. *)
let instance_gen =
  QCheck.Gen.(
    let* m = 3 -- 10 in
    let* d = 2 -- 4 in
    let* n = 2 -- 5 in
    let* entries = array_size (return (m * d)) (float_range 0.05 1.) in
    let lo = Array.init m (fun j -> Array.sub entries (j * d) d) in
    let caps = Array.init n (fun i -> 1. +. (0.25 *. float_of_int (i + 1))) in
    return (lo, caps))

let print_instance (lo, caps) =
  Format.asprintf "lo = %a caps = %a" Mat.pp (Mat.of_arrays lo) Vec.pp caps

let arbitrary_instance = QCheck.make ~print:print_instance instance_gen

let problem_of (lo, caps) = Problem.create ~lo:(Mat.of_arrays lo) ~caps

(* --- ROD class-I invariant ---------------------------------------- *)

(* Replaying the decision log: a class-I move must leave every weight of
   the chosen node's row at or below 1 — that is the definition of
   class I (Theorem 2: such moves cannot shrink the feasible set). *)
let prop_class_one_weights =
  QCheck.Test.make ~name:"ROD class-I moves keep weights <= 1" ~count:100
    arbitrary_instance (fun inst ->
      let problem = problem_of inst in
      let n = Problem.n_nodes problem in
      let d = Problem.dim problem in
      let _, decisions = Rod.Rod_algorithm.place_traced problem in
      let l = Problem.total_coefficients problem in
      let c_total = Problem.total_capacity problem in
      let ln = Mat.zeros n d in
      List.for_all
        (fun dec ->
          let load = Problem.op_load problem dec.Rod.Rod_algorithm.op in
          let i = dec.Rod.Rod_algorithm.node in
          for k = 0 to d - 1 do
            Mat.set ln i k (Mat.get ln i k +. load.(k))
          done;
          (not dec.Rod.Rod_algorithm.class_one)
          || Array.for_all Fun.id
               (Array.init d (fun k ->
                    Mat.get ln i k /. l.(k)
                    /. (problem.Problem.caps.(i) /. c_total)
                    <= 1. +. 1e-9)))
        decisions)

(* --- equivariance under node relabeling --------------------------- *)

let permutation_gen n =
  QCheck.Gen.(
    let* keys = array_size (return n) (float_bound_inclusive 1.) in
    let tagged = Array.mapi (fun i k -> (k, i)) keys in
    Array.sort compare tagged;
    return (Array.map snd tagged))

let prop_relabel_equivariant =
  QCheck.Test.make ~name:"placement is equivariant under node relabeling"
    ~count:100
    (QCheck.make
       ~print:(fun (inst, _) -> print_instance inst)
       QCheck.Gen.(
         let* inst = instance_gen in
         let* perm = permutation_gen (Array.length (snd inst)) in
         return (inst, perm)))
    (fun ((lo, caps), perm) ->
      let n = Array.length caps in
      let problem = problem_of (lo, caps) in
      let a = Rod.Rod_algorithm.place problem in
      (* New node [i] takes old node [perm.(i)]'s capacity, so an
         operator on old node [v] must land on [inv.(v)]. *)
      let caps_p = Vec.init n (fun i -> caps.(perm.(i))) in
      let problem_p = problem_of (lo, caps_p) in
      let a_p = Rod.Rod_algorithm.place problem_p in
      let inv = Array.make n 0 in
      Array.iteri (fun i v -> inv.(v) <- i) perm;
      let expected = Array.map (fun v -> inv.(v)) a in
      let vol p asg = (Plan.volume_qmc ~samples:512 (Plan.make p asg)).Feasible.Volume.ratio in
      expected = a_p && Float.equal (vol problem a) (vol problem_p a_p))

(* --- failure index arithmetic ------------------------------------- *)

let prop_degraded_round_trip =
  QCheck.Test.make ~name:"degraded_problem index shift round-trips" ~count:100
    (QCheck.make
       ~print:(fun (inst, f) ->
         Printf.sprintf "%s failed=%d" (print_instance inst) f)
       QCheck.Gen.(
         let* inst = instance_gen in
         let* f = 0 -- (Array.length (snd inst) - 1) in
         return (inst, f)))
    (fun ((lo, caps), failed) ->
      let n = Array.length caps in
      QCheck.assume (n > 1);
      let problem = problem_of (lo, caps) in
      let degraded = Rod.Failure.degraded_problem problem ~failed in
      let live i = if i < failed then i else i + 1 in
      let compact i = if i < failed then i else i - 1 in
      Problem.n_nodes degraded = n - 1
      && Mat.equal ~eps:0. degraded.Problem.lo problem.Problem.lo
      && Array.for_all Fun.id
           (Array.init (n - 1) (fun c ->
                Float.equal degraded.Problem.caps.(c) caps.(live c)))
      && Array.for_all Fun.id
           (Array.init n (fun i ->
                i = failed
                || (live (compact i) = i
                   && Float.equal degraded.Problem.caps.(compact i) caps.(i)))))

(* --- volume estimator laws ---------------------------------------- *)

(* Growing capacities can only grow the feasible set; the QMC estimates
   may wiggle by a few standard errors. *)
let prop_volume_monotone_in_caps =
  QCheck.Test.make ~name:"feasible volume is monotone in capacities"
    ~count:60
    (QCheck.make
       ~print:(fun (inst, _) -> print_instance inst)
       QCheck.Gen.(
         let* inst = instance_gen in
         let* growth =
           array_size (return (Array.length (snd inst))) (float_range 0. 0.5)
         in
         return (inst, growth)))
    (fun ((lo, caps), growth) ->
      let samples = 2048 in
      let est p a = Plan.volume_qmc ~samples (Plan.make p a) in
      let problem = problem_of (lo, caps) in
      let a = Rod.Rod_algorithm.place problem in
      let bigger =
        problem_of (lo, Array.mapi (fun i c -> c +. growth.(i)) caps)
      in
      let e1 = est problem a and e2 = est bigger a in
      e2.Feasible.Volume.volume
      >= e1.Feasible.Volume.volume
         -. 5.
            *. ((e1.Feasible.Volume.std_error *. e1.Feasible.Volume.ideal_volume)
               +. (e2.Feasible.Volume.std_error *. e2.Feasible.Volume.ideal_volume))
      -. 1e-12)

(* Scaling every capacity by s scales the feasible set linearly in each
   axis: volume scales by s^d and the ratio against the (equally
   scaled) ideal simplex is unchanged up to borderline-sample flips. *)
let prop_volume_scales_as_s_pow_d =
  QCheck.Test.make ~name:"volume scales as s^d under capacity scaling"
    ~count:60
    (QCheck.make
       ~print:(fun (inst, s) ->
         Printf.sprintf "%s s=%g" (print_instance inst) s)
       QCheck.Gen.(
         let* inst = instance_gen in
         let* s = float_range 0.5 2. in
         return (inst, s)))
    (fun ((lo, caps), s) ->
      let samples = 2048 in
      let problem = problem_of (lo, caps) in
      let d = Problem.dim problem in
      let a = Rod.Rod_algorithm.place problem in
      let scaled = problem_of (lo, Array.map (fun c -> s *. c) caps) in
      let e1 = Plan.volume_qmc ~samples (Plan.make problem a) in
      let e2 = Plan.volume_qmc ~samples (Plan.make scaled a) in
      let r1 = e1.Feasible.Volume.ratio and r2 = e2.Feasible.Volume.ratio in
      abs_float (r1 -. r2) <= 0.01
      && abs_float (e2.Feasible.Volume.volume -. ((s ** float_of_int d) *. e1.Feasible.Volume.volume))
         <= 0.02 *. Float.max 1e-9 ((s ** float_of_int d) *. e1.Feasible.Volume.volume)
         +. 1e-12)

let suite =
  List.map (fun t -> QCheck_alcotest.to_alcotest ~rand:(Test_rand.get ()) t)
    [
      prop_class_one_weights;
      prop_relabel_equivariant;
      prop_degraded_round_trip;
      prop_volume_monotone_in_caps;
      prop_volume_scales_as_s_pow_d;
    ]
