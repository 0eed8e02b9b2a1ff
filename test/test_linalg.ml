(* Unit and property tests for the dense linear-algebra substrate. *)

module Vec = Linalg.Vec
module Mat = Linalg.Mat

let approx = Alcotest.float 1e-9

let check_vec msg expected actual =
  Alcotest.(check (list (float 1e-9))) msg (Vec.to_list expected)
    (Vec.to_list actual)

let test_create_and_basis () =
  check_vec "zeros" (Vec.of_list [ 0.; 0.; 0. ]) (Vec.zeros 3);
  check_vec "ones" (Vec.of_list [ 1.; 1. ]) (Vec.ones 2);
  check_vec "basis" (Vec.of_list [ 0.; 1.; 0. ]) (Vec.basis 3 1);
  Alcotest.check_raises "basis out of range"
    (Invalid_argument "Vec.basis: axis out of range") (fun () ->
      ignore (Vec.basis 2 5))

let test_dot_and_norms () =
  let x = Vec.of_list [ 3.; 4. ] in
  Alcotest.check approx "dot" 25. (Vec.dot x x);
  Alcotest.check approx "norm2" 5. (Vec.norm2 x);
  Alcotest.check approx "norm1" 7. (Vec.norm1 x);
  Alcotest.check approx "norm_inf" 4. (Vec.norm_inf x);
  Alcotest.check_raises "dot dimension mismatch"
    (Invalid_argument "Vec.dot: dimensions 2 <> 3") (fun () ->
      ignore (Vec.dot x (Vec.zeros 3)))

let test_arithmetic () =
  let x = Vec.of_list [ 1.; 2. ] and y = Vec.of_list [ 3.; 5. ] in
  check_vec "add" (Vec.of_list [ 4.; 7. ]) (Vec.add x y);
  check_vec "sub" (Vec.of_list [ -2.; -3. ]) (Vec.sub x y);
  check_vec "scale" (Vec.of_list [ 2.; 4. ]) (Vec.scale 2. x);
  check_vec "mul" (Vec.of_list [ 3.; 10. ]) (Vec.mul x y);
  check_vec "div" (Vec.of_list [ 3.; 2.5 ]) (Vec.div y x);
  let acc = Vec.copy y in
  Vec.axpy 2. x acc;
  check_vec "axpy" (Vec.of_list [ 5.; 9. ]) acc

let test_aggregates () =
  let x = Vec.of_list [ 4.; 1.; 3. ] in
  Alcotest.check approx "sum" 8. (Vec.sum x);
  Alcotest.check approx "mean" (8. /. 3.) (Vec.mean x);
  Alcotest.check approx "min" 1. (Vec.min_elt x);
  Alcotest.check approx "max" 4. (Vec.max_elt x);
  Alcotest.(check int) "argmin" 1 (Vec.argmin x);
  Alcotest.(check int) "argmax" 0 (Vec.argmax x)

let test_mat_shapes () =
  let m = Mat.init 2 3 (fun i j -> float_of_int ((10 * i) + j)) in
  Alcotest.(check int) "rows" 2 (Mat.rows m);
  Alcotest.(check int) "cols" 3 (Mat.cols m);
  Alcotest.check approx "get" 12. (Mat.get m 1 2);
  check_vec "row" (Vec.of_list [ 10.; 11.; 12. ]) (Mat.row m 1);
  check_vec "col" (Vec.of_list [ 1.; 11. ]) (Mat.col m 1);
  let t = Mat.transpose m in
  Alcotest.(check int) "transpose rows" 3 (Mat.rows t);
  check_vec "transpose row" (Vec.of_list [ 2.; 12. ]) (Mat.row t 2)

let test_matmul () =
  let a = Mat.of_rows [ Vec.of_list [ 1.; 2. ]; Vec.of_list [ 3.; 4. ] ] in
  let b = Mat.of_rows [ Vec.of_list [ 5.; 6. ]; Vec.of_list [ 7.; 8. ] ] in
  let c = Mat.matmul a b in
  check_vec "matmul row 0" (Vec.of_list [ 19.; 22. ]) (Mat.row c 0);
  check_vec "matmul row 1" (Vec.of_list [ 43.; 50. ]) (Mat.row c 1);
  let id = Mat.identity 2 in
  Alcotest.(check bool) "identity is neutral" true
    (Mat.equal (Mat.matmul id a) a);
  check_vec "matvec" (Vec.of_list [ 5.; 11. ]) (Mat.matvec a (Vec.of_list [ 1.; 2. ]))

let test_sums () =
  let m = Mat.of_rows [ Vec.of_list [ 1.; 2. ]; Vec.of_list [ 3.; 4. ] ] in
  check_vec "col_sums" (Vec.of_list [ 4.; 6. ]) (Mat.col_sums m);
  check_vec "row_sums" (Vec.of_list [ 3.; 7. ]) (Mat.row_sums m)

let test_ragged_rejected () =
  Alcotest.check_raises "ragged" (Invalid_argument "Mat.of_rows: ragged rows")
    (fun () ->
      ignore (Mat.of_rows [ Vec.of_list [ 1. ]; Vec.of_list [ 1.; 2. ] ]))

(* --- properties --- *)

let vec_gen n =
  QCheck.Gen.(array_size (return n) (float_bound_inclusive 100.))

let prop_dot_commutes =
  QCheck.Test.make ~name:"dot commutes" ~count:200
    QCheck.(
      make
        QCheck.Gen.(
          let* n = 1 -- 8 in
          pair (vec_gen n) (vec_gen n)))
    (fun (x, y) -> abs_float (Vec.dot x y -. Vec.dot y x) < 1e-9)

let prop_triangle_inequality =
  QCheck.Test.make ~name:"norm triangle inequality" ~count:200
    QCheck.(
      make
        QCheck.Gen.(
          let* n = 1 -- 8 in
          pair (vec_gen n) (vec_gen n)))
    (fun (x, y) -> Vec.norm2 (Vec.add x y) <= Vec.norm2 x +. Vec.norm2 y +. 1e-9)

let prop_col_sums_additive =
  QCheck.Test.make ~name:"col_sums additive over row append" ~count:100
    QCheck.(
      make
        QCheck.Gen.(
          let* cols = 1 -- 5 in
          let* rows = 1 -- 6 in
          array_size (return rows) (vec_gen cols)))
    (fun rows ->
      let m = Mat.of_rows (Array.to_list rows) in
      let by_hand =
        Array.fold_left
          (fun acc r -> Vec.add acc r)
          (Vec.zeros (Mat.cols m))
          rows
      in
      Vec.equal ~eps:1e-6 by_hand (Mat.col_sums m))

let mat_gen rows cols =
  QCheck.Gen.(array_size (return rows) (vec_gen cols))

let prop_matmul_associative =
  QCheck.Test.make ~name:"matmul associative" ~count:60
    (QCheck.make
       QCheck.Gen.(
         let* a = 1 -- 4 and* b = 1 -- 4 and* c = 1 -- 4 and* d = 1 -- 4 in
         triple (mat_gen a b) (mat_gen b c) (mat_gen c d)))
    (fun (a, b, c) ->
      let a = Mat.of_rows (Array.to_list a) in
      let b = Mat.of_rows (Array.to_list b) in
      let c = Mat.of_rows (Array.to_list c) in
      Mat.equal ~eps:1e-3 (Mat.matmul (Mat.matmul a b) c)
        (Mat.matmul a (Mat.matmul b c)))

let prop_transpose_involution =
  QCheck.Test.make ~name:"transpose is an involution" ~count:80
    (QCheck.make
       QCheck.Gen.(
         let* r = 1 -- 5 and* c = 1 -- 5 in
         mat_gen r c))
    (fun rows ->
      let m = Mat.of_rows (Array.to_list rows) in
      Mat.equal (Mat.transpose (Mat.transpose m)) m)

let prop_matvec_matches_matmul =
  QCheck.Test.make ~name:"matvec = matmul with a column" ~count:60
    (QCheck.make
       QCheck.Gen.(
         let* r = 1 -- 5 and* c = 1 -- 5 in
         pair (mat_gen r c) (vec_gen c)))
    (fun (rows, x) ->
      let m = Mat.of_rows (Array.to_list rows) in
      let column = Mat.transpose (Mat.of_rows [ x ]) in
      let product = Mat.matmul m column in
      Vec.equal ~eps:1e-6 (Mat.matvec m x) (Mat.col product 0))

let suite =
  [
    Alcotest.test_case "create/basis" `Quick test_create_and_basis;
    Alcotest.test_case "dot/norms" `Quick test_dot_and_norms;
    Alcotest.test_case "arithmetic" `Quick test_arithmetic;
    Alcotest.test_case "aggregates" `Quick test_aggregates;
    Alcotest.test_case "matrix shapes" `Quick test_mat_shapes;
    Alcotest.test_case "matmul" `Quick test_matmul;
    Alcotest.test_case "row/col sums" `Quick test_sums;
    Alcotest.test_case "ragged rejected" `Quick test_ragged_rejected;
    QCheck_alcotest.to_alcotest ~rand:(Test_rand.get ()) prop_dot_commutes;
    QCheck_alcotest.to_alcotest ~rand:(Test_rand.get ())
      prop_triangle_inequality;
    QCheck_alcotest.to_alcotest ~rand:(Test_rand.get ()) prop_col_sums_additive;
    QCheck_alcotest.to_alcotest ~rand:(Test_rand.get ())
      prop_matmul_associative;
    QCheck_alcotest.to_alcotest ~rand:(Test_rand.get ())
      prop_transpose_involution;
    QCheck_alcotest.to_alcotest ~rand:(Test_rand.get ())
      prop_matvec_matches_matmul;
  ]
