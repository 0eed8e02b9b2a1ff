(* rodscan-expect: race/captured-field *)

(* A mutable field of a captured record written from every chunk. *)

type cell = { mutable value : float }

let fill pool acc n = Parallel.Pool.parallel_for pool ~n (fun _lo _hi -> acc.value <- 1.0)
