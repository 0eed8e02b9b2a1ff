(* rodscan-expect: race/captured-ref *)

(* map_chunks_i hands each chunk its index, not a licence to share
   state: the captured counter still races. *)

let lengths pool n =
  let seen = ref 0 in
  Parallel.Pool.map_chunks_i pool ~n (fun _chunk lo hi ->
      incr seen;
      hi - lo)
