(* rodscan-expect: race/captured-array *)

(* Every chunk writes the same slot of a captured array: the index
   involves no closure-bound variable, so the writes collide. *)

let scatter pool out n = Parallel.Pool.parallel_for pool ~n (fun _lo _hi -> out.(0) <- 1.0)
