(* rodlint: hot *)
(* rodlint: obs *)

module Vec = Linalg.Vec
module Pool = Parallel.Pool

let obs_passes =
  Obs.counter ~help:"Local-search sweeps over all operators"
    "rod_ls_passes_total"

let obs_relocations =
  Obs.counter
    ~labels:[ ("kind", "relocation") ]
    ~help:"Accepted local-search moves, by kind" "rod_ls_moves_total"

let obs_swaps = Obs.counter ~labels:[ ("kind", "swap") ] "rod_ls_moves_total"

let obs_rejects =
  Obs.counter ~help:"Candidate moves evaluated but not applied"
    "rod_ls_rejects_total"

let obs_score =
  Obs.histogram
    ~buckets:(Obs.Histogram.linear ~start:0.05 ~step:0.05 ~count:19)
    ~help:"Feasible-set score (feasible/samples) after each pass"
    "rod_ls_pass_score"

type outcome = {
  assignment : int array;
  ratio : float;
  moves : int;
  passes : int;
}

(* Shared-sample scoring state, maintained incrementally: per-node,
   per-sample accumulated load and a per-sample count of capacity
   violations (feasible iff zero).  The violation counts double as the
   candidate-evaluation skip index: because [Problem.t] guarantees
   nonnegative load coefficients (and the QMC rate points are
   nonnegative), every per-sample contribution is >= 0, so removing an
   operator from a node can only lower that node's load and adding one
   can only raise it.  A relocation therefore changes a sample's
   violation count by at most -1/+1 and a swap by at most -2/+2, which
   is what lets the fused kernels skip samples whose feasibility
   provably cannot flip ([violations >= 2] for relocations,
   [violations >= 3] for swaps).

   The samples with 1 <= v <= 2 are the only ones a relocation bound or
   a swap can turn feasible, and they are few; [near] lists them in
   ascending order.  [shift] only marks the list stale, and the next
   read rebuilds it in one sequential scan, outside any pool task.

   The sample dimension is sharded across the pool for the mutating
   [shift] path and the fused relocation kernel: per-sample state lines
   are touched by exactly one chunk, and every reduction is a sum of
   per-chunk integers combined in chunk order, so every pool size
   computes the same scores.  The swap evaluation path is read-only,
   integer-exact and pruned down to a handful of samples, so it runs
   sequentially. *)
type scorer = {
  samples : int;
  n_nodes : int;
  pool : Pool.t;
  loads : float array array;
      (* op -> sample -> load contribution (>= 0); the problem's shared
         table, never written *)
  node_load : float array array;  (* node -> sample *)
  violations : int array;  (* sample -> number of saturated nodes *)
  caps : Vec.t;
  assignment : int array;  (* shared with the caller; current homes *)
  mutable feasible : int;
  near : int array;  (* samples with 1 <= violations <= 2, ascending *)
  mutable near_len : int;
  mutable near_stale : bool;
  (* Fused-kernel scratch, preallocated so the steady state allocates
     nothing: chunk [c] of the relocation kernel writes only
     [gain_chunks.(c)]; the reduced per-node gains land in [gains]. *)
  gain_chunks : int array array;
  gains : int array;
  (* Swap-batch scratch for one (j1, current state) preparation: the
     (typically tiny) list of samples where a swap could possibly gain
     feasibility, and per entry the home-row subtraction and the
     violation delta of j1's removal, shared across every partner j2. *)
  swap_a1 : float array;  (* entry -> node_load(a) -. loads(j1) *)
  swap_t1 : int array;  (* entry -> violation delta of removing j1 *)
  swap_pos : int array;  (* candidate-gain sample indices *)
  mutable swap_pos_len : int;
}

let feasible scorer = scorer.feasible

let n_samples scorer = scorer.samples

let make_scorer ?pool problem assignment samples =
  let pool = match pool with Some p -> p | None -> Pool.global () in
  let n = Problem.n_nodes problem in
  let m = Problem.n_ops problem in
  let l = Problem.total_coefficients problem in
  let c_total = Problem.total_capacity problem in
  let dim = Problem.dim problem in
  let lo = problem.Problem.lo in
  (* Built once per problem and sample count, then shared by every
     scorer on that problem.  One fused pass per sample chunk: generate
     the QMC rate point into per-chunk scratch (hoisted out of the loop
     body) and immediately fold it into every operator's per-sample load
     contribution — the samples x dim point table is never
     materialized.  The dot product accumulates left-to-right exactly
     like [Mat.dot_rows], so the load table is bit-identical to the
     former build-points-then-dot form. *)
  let loads =
    Problem.sample_loads problem ~samples (fun () ->
        let loads = Array.init m (fun _ -> Array.make samples 0.) in
        Pool.parallel_for pool ~n:samples (fun lo_s hi_s ->
            let cube = Array.make dim 0. in
            let point = Array.make dim 0. in
            let acc = ref 0. in
            for s = lo_s to hi_s - 1 do
              Feasible.Halton.point_into cube s;
              Feasible.Simplex.sample_ideal_into ~l ~c_total ~cube_point:cube
                ~scratch:cube point;
              for j = 0 to m - 1 do
                let row = lo.(j) in
                acc := 0.;
                for k = 0 to dim - 1 do
                  acc := !acc +. (row.(k) *. point.(k))
                done;
                loads.(j).(s) <- !acc
              done
            done);
        loads)
  in
  let node_load = Array.init n (fun _ -> Array.make samples 0.) in
  let caps = problem.Problem.caps in
  let violations = Array.make samples 0 in
  let feasible =
    Pool.map_reduce pool ~n:samples ~init:0 ~combine:( + ) ~map:(fun lo hi ->
        Array.iteri
          (fun j node ->
            let row = node_load.(node) and contrib = loads.(j) in
            for s = lo to hi - 1 do
              row.(s) <- row.(s) +. contrib.(s)
            done)
          assignment;
        let feasible = ref 0 in
        for s = lo to hi - 1 do
          for i = 0 to n - 1 do
            if node_load.(i).(s) > caps.(i) then
              violations.(s) <- violations.(s) + 1
          done;
          if violations.(s) = 0 then incr feasible
        done;
        !feasible)
  in
  let ways = Pool.ways pool in
  {
    samples;
    n_nodes = n;
    pool;
    loads;
    node_load;
    violations;
    caps;
    assignment;
    feasible;
    near = Array.make samples 0;
    near_len = 0;
    near_stale = true;
    gain_chunks = Array.init ways (fun _ -> Array.make n 0);
    gains = Array.make n 0;
    swap_a1 = Array.make samples 0.;
    swap_t1 = Array.make samples 0;
    swap_pos = Array.make samples 0;
    swap_pos_len = 0;
  }

(* Apply op j's contribution to node i with the given sign, keeping the
   violation counters and feasible count consistent.  Chunks touch
   disjoint sample ranges; the feasible delta is an exact integer sum,
   so the parallel result is identical to the sequential one. *)
let shift scorer j i sign =
  let row = scorer.node_load.(i) and contrib = scorer.loads.(j) in
  let cap = scorer.caps.(i) in
  let violations = scorer.violations in
  let delta =
    Pool.map_reduce scorer.pool ~n:scorer.samples ~init:0 ~combine:( + )
      ~map:(fun lo hi ->
        let delta = ref 0 in
        for s = lo to hi - 1 do
          let before = row.(s) in
          let after = before +. (sign *. contrib.(s)) in
          row.(s) <- after;
          if before <= cap && after > cap then begin
            if violations.(s) = 0 then decr delta;
            violations.(s) <- violations.(s) + 1
          end
          else if before > cap && after <= cap then begin
            violations.(s) <- violations.(s) - 1;
            if violations.(s) = 0 then incr delta
          end
        done;
        !delta)
  in
  scorer.feasible <- scorer.feasible + delta;
  scorer.near_stale <- true

(* Rebuild the near-feasible list if a [shift] made it stale. *)
let refresh_near scorer =
  if scorer.near_stale then begin
    let violations = scorer.violations and near = scorer.near in
    let len = ref 0 in
    for s = 0 to scorer.samples - 1 do
      let v = violations.(s) in
      if v >= 1 && v <= 2 then begin
        near.(!len) <- s;
        incr len
      end
    done;
    scorer.near_len <- !len;
    scorer.near_stale <- false
  end

let move scorer j ~from_node ~to_node =
  shift scorer j from_node (-1.);
  shift scorer j to_node 1.

(* Read-only feasibility delta of the hypothetical move of [j] from its
   current node to [to_node]: simulates exactly the two [shift]s a
   [move] would perform — same float expressions against the same
   stored values, both crossing directions checked like [shift] does —
   but writes nothing.  The per-sample feasible deltas of the two
   shifts telescope to [(v_after = 0) - (v_before = 0)], so the sum
   equals the [feasible]-after-move minus [feasible]-before a real
   [move] would produce, bit for bit. *)
let gain scorer j ~to_node =
  let from_node = scorer.assignment.(j) in
  if to_node = from_node then 0
  else begin
    let row_f = scorer.node_load.(from_node)
    and row_t = scorer.node_load.(to_node)
    and contrib = scorer.loads.(j) in
    let cap_f = scorer.caps.(from_node) and cap_t = scorer.caps.(to_node) in
    let violations = scorer.violations in
    Pool.map_reduce scorer.pool ~n:scorer.samples ~init:0 ~combine:( + )
      ~map:(fun lo hi ->
        let delta = ref 0 in
        for s = lo to hi - 1 do
          let v = violations.(s) in
          (* |Δv| <= 2 across both steps, so v >= 3 can never reach 0
             and, being nonzero already, contributes no delta. *)
          if v < 3 then begin
            let c = contrib.(s) in
            let before_f = row_f.(s) in
            let after_f = before_f +. (-1. *. c) in
            let v1 =
              if before_f <= cap_f && after_f > cap_f then v + 1
              else if before_f > cap_f && after_f <= cap_f then v - 1
              else v
            in
            let before_t = row_t.(s) in
            let after_t = before_t +. (1. *. c) in
            let v2 =
              if before_t <= cap_t && after_t > cap_t then v1 + 1
              else if before_t > cap_t && after_t <= cap_t then v1 - 1
              else v1
            in
            if v2 = 0 then begin
              if v <> 0 then incr delta
            end
            else if v = 0 then decr delta
          end
        done;
        !delta)
  end

(* Read-only feasibility delta of swapping [j1] and [j2] between their
   (distinct) current nodes: simulates the four [shift]s of the
   mutate-and-undo evaluation in order — remove j1 from a, add j1 to b,
   remove j2 from b, add j2 to a — with each step reading the value the
   previous step produced, exactly as the mutating path would. *)
let swap_gain scorer j1 j2 =
  let a = scorer.assignment.(j1) and b = scorer.assignment.(j2) in
  if a = b then
    invalid_arg "Local_search.swap_gain: operators share a node";
  let row_a = scorer.node_load.(a) and row_b = scorer.node_load.(b) in
  let c1 = scorer.loads.(j1) and c2 = scorer.loads.(j2) in
  let cap_a = scorer.caps.(a) and cap_b = scorer.caps.(b) in
  let violations = scorer.violations in
  Pool.map_reduce scorer.pool ~n:scorer.samples ~init:0 ~combine:( + )
    ~map:(fun lo hi ->
      let delta = ref 0 in
      for s = lo to hi - 1 do
        let v = violations.(s) in
        (* |Δv| <= 4 across the four steps but the two removals can
           lower it by at most 2, so v >= 5 is inert; with nonnegative
           contributions v >= 3 already is, and that is the bound the
           fused sweep uses.  The primitive keeps the sign-agnostic
           bound for symmetry with the arms below. *)
        if v < 5 then begin
          let ca = c1.(s) and cb = c2.(s) in
          let a0 = row_a.(s) in
          let a1 = a0 +. (-1. *. ca) in
          let v1 =
            if a0 <= cap_a && a1 > cap_a then v + 1
            else if a0 > cap_a && a1 <= cap_a then v - 1
            else v
          in
          let b0 = row_b.(s) in
          let b1 = b0 +. (1. *. ca) in
          let v2 =
            if b0 <= cap_b && b1 > cap_b then v1 + 1
            else if b0 > cap_b && b1 <= cap_b then v1 - 1
            else v1
          in
          let b2 = b1 +. (-1. *. cb) in
          let v3 =
            if b1 <= cap_b && b2 > cap_b then v2 + 1
            else if b1 > cap_b && b2 <= cap_b then v2 - 1
            else v2
          in
          let a2 = a1 +. (1. *. cb) in
          let v4 =
            if a1 <= cap_a && a2 > cap_a then v3 + 1
            else if a1 > cap_a && a2 <= cap_a then v3 - 1
            else v3
          in
          if v4 = 0 then begin
            if v <> 0 then incr delta
          end
          else if v = 0 then decr delta
        end
      done;
      !delta)

(* Upper bound on any relocation gain for operator [j]: a sample can
   only become feasible if it has exactly one saturated node, that node
   is j's home, and removing j's contribution un-saturates it.  The
   count of such samples bounds [relocation_gains] from above, so zero
   means no candidate target can improve and the fused kernel can be
   skipped wholesale. *)
let relocation_positive_bound scorer j =
  let home = scorer.assignment.(j) in
  let row = scorer.node_load.(home) and contrib = scorer.loads.(j) in
  let cap = scorer.caps.(home) in
  let violations = scorer.violations in
  refresh_near scorer;
  let near = scorer.near in
  let count = ref 0 in
  for k = 0 to scorer.near_len - 1 do
    let s = near.(k) in
    if violations.(s) = 1 then begin
      let h = row.(s) in
      if h > cap && h -. contrib.(s) <= cap then incr count
    end
  done;
  !count

(* Fused relocation kernel: the feasibility delta of moving [j] to
   every target node, in one pass over the sample dimension (one pool
   dispatch per operator instead of one per candidate).  Per sample the
   home-row subtraction and its violation transition are computed once
   and shared across all n candidates; the violation index skips
   samples that provably cannot flip:

   - v >= 2: a relocation changes v by at most -1/+1 (contributions are
     nonnegative, so the removal never saturates and the addition never
     un-saturates a node), hence v' >= 1 and the sample stays
     infeasible — delta 0 for every candidate.
   - v = 1: a candidate gains +1 exactly when j's removal un-saturates
     the home node (the unique saturated one) and the addition does not
     saturate the target; anything else leaves the sample infeasible.
   - v = 0: a candidate loses 1 exactly when the addition saturates the
     target (the removal cannot saturate the home).

   The per-candidate deltas are exact integers accumulated into
   per-chunk scratch rows and reduced in chunk order, so the result is
   identical for every pool size, and equals [gain scorer j ~to_node:i]
   for every i.  The returned array is scorer-owned scratch, valid
   until the next call. *)
let relocation_gains scorer j =
  let n = scorer.n_nodes in
  let home = scorer.assignment.(j) in
  let home_row = scorer.node_load.(home) and contrib = scorer.loads.(j) in
  let cap_h = scorer.caps.(home) in
  let node_load = scorer.node_load and caps = scorer.caps in
  let violations = scorer.violations in
  let gain_chunks = scorer.gain_chunks in
  ignore
    (Pool.map_chunks_i scorer.pool ~n:scorer.samples (fun c lo hi ->
         let row = gain_chunks.(c) in
         Array.fill row 0 n 0;
         for s = lo to hi - 1 do
           let v = violations.(s) in
           if v = 0 then begin
             let cs = contrib.(s) in
             if cs > 0. then
               for i = 0 to n - 1 do
                 if i <> home && node_load.(i).(s) +. cs > caps.(i) then
                   row.(i) <- row.(i) - 1
               done
           end
           else if v = 1 then begin
             let h = home_row.(s) in
             let cs = contrib.(s) in
             if h > cap_h && h -. cs <= cap_h then
               for i = 0 to n - 1 do
                 if i <> home && not (node_load.(i).(s) +. cs > caps.(i))
                 then row.(i) <- row.(i) + 1
               done
           end
         done));
  let gains = scorer.gains in
  Array.fill gains 0 n 0;
  let chunks = Array.length gain_chunks in
  for c = 0 to chunks - 1 do
    let row = gain_chunks.(c) in
    for i = 0 to n - 1 do
      gains.(i) <- gains.(i) + row.(i)
    done
  done;
  gains

(* Prepare the swap batch for [j1] against the current state: collect
   the samples where a swap could possibly gain feasibility, with the
   home-row subtraction [node_load(a) -. c1] and its violation delta
   for each (shared by every partner j2).  A sample with violation
   count v can only reach v' = 0 if v + t1 <= 1, because the only
   remaining decrement in the four-step simulation is j2's removal
   from b; with nonnegative contributions v = 0 samples can only lose,
   so only the near-feasible list is scanned.  The resulting candidate
   list is usually tiny, which is what makes the quadratic swap sweep
   affordable. *)
let swap_prepare scorer j1 =
  let a = scorer.assignment.(j1) in
  let row_a = scorer.node_load.(a) and c1 = scorer.loads.(j1) in
  let cap_a = scorer.caps.(a) in
  let violations = scorer.violations in
  let a1s = scorer.swap_a1 and t1s = scorer.swap_t1 in
  let pos = scorer.swap_pos in
  refresh_near scorer;
  let near = scorer.near in
  let len = ref 0 in
  for k = 0 to scorer.near_len - 1 do
    let s = near.(k) in
    let a0 = row_a.(s) in
    let a1 = a0 -. c1.(s) in
    let t1 = if a0 > cap_a && a1 <= cap_a then -1 else 0 in
    if violations.(s) + t1 <= 1 then begin
      pos.(!len) <- s;
      a1s.(!len) <- a1;
      t1s.(!len) <- t1;
      incr len
    end
  done;
  scorer.swap_pos_len <- !len

(* Decide the swap (j1, j2) from the prepared batch: the positive part
   of the gain is summed over the candidate list only, and the negative
   part (feasible samples that the swap would break) is only computed
   when some sample actually flips feasible — with an early exit as
   soon as the losses cancel the wins.  The accept decision (gain > 0)
   is exactly the one the mutate-and-undo evaluation reaches, at a
   fraction of the work.  [swap_prepare scorer j1] must be current. *)
let swap_try scorer j1 j2 =
  let a = scorer.assignment.(j1) and b = scorer.assignment.(j2) in
  let row_a = scorer.node_load.(a) and row_b = scorer.node_load.(b) in
  let c1 = scorer.loads.(j1) and c2 = scorer.loads.(j2) in
  let cap_a = scorer.caps.(a) and cap_b = scorer.caps.(b) in
  let violations = scorer.violations in
  let a1s = scorer.swap_a1 and t1s = scorer.swap_t1 in
  let pos_idx = scorer.swap_pos in
  let pos = ref 0 in
  for k = 0 to scorer.swap_pos_len - 1 do
    let s = pos_idx.(k) in
    let v = violations.(s) in
    let cb = c2.(s) in
    let b0 = row_b.(s) in
    let b1 = b0 +. c1.(s) in
    let t2 = if b0 <= cap_b && b1 > cap_b then 1 else 0 in
    let b2 = b1 -. cb in
    let t3 = if b1 > cap_b && b2 <= cap_b then -1 else 0 in
    let a1 = a1s.(k) in
    let a2 = a1 +. cb in
    let t4 = if a1 <= cap_a && a2 > cap_a then 1 else 0 in
    if v + t1s.(k) + t2 + t3 + t4 = 0 then incr pos
  done;
  if !pos = 0 then false
  else begin
    (* Negative part: feasible samples the swap would break.  t1 is 0
       on every v = 0 sample (its home node cannot be saturated), so
       the sample stays feasible iff no step leaves a saturation
       behind. *)
    let neg = ref 0 in
    let s = ref 0 in
    let samples = scorer.samples in
    while !neg < !pos && !s < samples do
      if violations.(!s) = 0 then begin
        let cb = c2.(!s) in
        let b0 = row_b.(!s) in
        let b1 = b0 +. c1.(!s) in
        let t2 = if b1 > cap_b then 1 else 0 in
        let b2 = b1 -. cb in
        let t3 = if b1 > cap_b && b2 <= cap_b then -1 else 0 in
        let a1 = row_a.(!s) -. c1.(!s) in
        let a2 = a1 +. cb in
        let t4 = if a2 > cap_a then 1 else 0 in
        if t2 + t3 + t4 <> 0 then incr neg
      end;
      incr s
    done;
    !pos > !neg
  end

let improve ?pool ?(samples = 2048) ?(max_passes = 20) problem assignment =
  let m = Problem.n_ops problem and n = Problem.n_nodes problem in
  if Array.length assignment <> m then
    invalid_arg "Local_search.improve: assignment length";
  if max_passes < 1 then invalid_arg "Local_search.improve: max_passes < 1";
  let assignment = Array.copy assignment in
  let scorer = make_scorer ?pool problem assignment samples in
  let moves = ref 0 in
  let passes = ref 0 in
  let improved = ref true in
  (* Telemetry tallies stay in plain locals through the sweeps (the
     sweeps run pool-backed scoring) and are flushed to the registry
     once at the end. *)
  let relocations_applied = ref 0 in
  let swaps_applied = ref 0 in
  let rejected = ref 0 in
  (* One sweep of single-operator relocations; best-of-n per operator,
     applied immediately when it gains.  Candidates are scored by the
     fused read-only kernel — one pool dispatch per operator instead of
     four per (operator, node) pair — and skipped wholesale when the
     positive bound proves no target can gain. *)
  let relocation_sweep () =
    let any = ref false in
    let best_node = ref 0 in
    let best_gain = ref 0 in
    for j = 0 to m - 1 do
      let home = assignment.(j) in
      let tried = n - 1 in
      best_node := home;
      if relocation_positive_bound scorer j > 0 then begin
        let gains = relocation_gains scorer j in
        best_gain := 0;
        (* Ascending scan with a strict improvement test resolves ties
           to the lowest target index, like the mutate-and-undo sweep
           did. *)
        for i = 0 to n - 1 do
          if i <> home && gains.(i) > !best_gain then begin
            best_gain := gains.(i);
            best_node := i
          end
        done
      end;
      if !best_node <> home then begin
        move scorer j ~from_node:home ~to_node:!best_node;
        assignment.(j) <- !best_node;
        incr moves;
        incr relocations_applied;
        rejected := !rejected + tried - 1;
        any := true
      end
      else rejected := !rejected + tried
    done;
    !any
  in
  (* Pairwise exchanges escape single-move local optima (swapping two
     operators between their nodes keeps per-node counts stable while
     rebalancing directions).  Each j1 prepares one shared batch; an
     accepted swap invalidates it (the home node changes), so the next
     pair re-prepares against the new state. *)
  let swap_sweep () =
    let any = ref false in
    let prepared = ref false in
    for j1 = 0 to m - 1 do
      prepared := false;
      for j2 = j1 + 1 to m - 1 do
        let a = assignment.(j1) and b = assignment.(j2) in
        if a <> b then begin
          if not !prepared then begin
            swap_prepare scorer j1;
            prepared := true
          end;
          if scorer.swap_pos_len > 0 && swap_try scorer j1 j2 then begin
            move scorer j1 ~from_node:a ~to_node:b;
            move scorer j2 ~from_node:b ~to_node:a;
            assignment.(j1) <- b;
            assignment.(j2) <- a;
            moves := !moves + 2;
            incr swaps_applied;
            any := true;
            prepared := false
          end
          else incr rejected
        end
      done
    done;
    !any
  in
  Obs.with_span ~cat:"place"
    ~args:[ ("ops", string_of_int m); ("samples", string_of_int samples) ]
    "ls.improve"
    (fun () ->
      while !improved && !passes < max_passes do
        incr passes;
        let relocated = relocation_sweep () in
        (* Swaps are O(m^2); only pay for them when relocations are dry. *)
        improved := (relocated || swap_sweep ());
        Obs.Histogram.observe obs_score
          (float_of_int scorer.feasible /. float_of_int samples)
      done);
  Obs.Counter.add obs_passes !passes;
  Obs.Counter.add obs_relocations !relocations_applied;
  Obs.Counter.add obs_swaps !swaps_applied;
  Obs.Counter.add obs_rejects !rejected;
  {
    assignment;
    ratio = float_of_int scorer.feasible /. float_of_int samples;
    moves = !moves;
    passes = !passes;
  }

let rod_polished ?pool ?samples ?max_passes problem =
  improve ?pool ?samples ?max_passes problem (Rod_algorithm.place problem)
