(* rodscan-expect: race/captured-ref *)

(* incr of a ref captured by the parallel_for body: every chunk races
   on the same counter. *)

let count pool n =
  let hits = ref 0 in
  Parallel.Pool.parallel_for pool ~n (fun lo hi ->
      for _ = lo to hi - 1 do
        incr hits
      done);
  !hits
