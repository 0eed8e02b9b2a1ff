(* rodscan-expect: race/captured-ref *)

(* The ~map closure of map_reduce runs once per chunk, in parallel: a
   captured counter bumped there races although the fold itself is
   safe. *)

let sum pool data =
  let calls = ref 0 in
  Parallel.Pool.map_reduce pool ~n:(Array.length data)
    ~map:(fun lo hi ->
      incr calls;
      let acc = ref 0. in
      for s = lo to hi - 1 do
        acc := !acc +. data.(s)
      done;
      !acc)
    ~combine:( +. ) ~init:0.
