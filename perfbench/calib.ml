(* The box's speed, measured next to every unit of work.

   On a shared box, wall-clock speed drifts by tens of percent over
   seconds and minutes, and every stage of a run drifts with it.  A
   fixed computation timed before each unit measures that drift, and
   the end-to-end timings are scaled by its median over a run to the
   speed the box had when [reference] was taken.  The computation is
   the benchmark's own and never calls the libraries, so a change to
   the code under test cannot change it. *)

(* A mix of allocation, a sort, a hash table and float arithmetic. *)
let work () =
  let n = 20_000 in
  let rng = Random.State.make [| 42 |] in
  let a = Array.init n (fun _ -> Random.State.float rng 1.) in
  Array.sort Float.compare a;
  let h = Hashtbl.create 1024 in
  Array.iteri (fun i x -> Hashtbl.replace h (i land 4095) x) a;
  let l = List.init n (fun i -> float_of_int i *. a.(i)) in
  let s = List.fold_left ( +. ) 0. l in
  ignore (Sys.opaque_identity (s, Hashtbl.length h))

let time () =
  let t0 = Unix.gettimeofday () in
  work ();
  Unix.gettimeofday () -. t0

(* Median seconds of [work] on the 2-core Intel Xeon box the benchmark
   was tuned on, at its usual speed. *)
let reference = 0.0085
