(* rodlint: hot *)
(* rodscan-expect: alloc/closure *)

(* A function literal inside a hot loop allocates one closure per
   iteration; hoist it out of the loop. *)

let sum_squares n =
  let acc = ref 0. in
  for i = 0 to n - 1 do
    let square = fun x -> x *. x in
    acc := !acc +. square (float_of_int i)
  done;
  !acc
