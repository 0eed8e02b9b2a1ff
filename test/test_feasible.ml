(* Tests of the feasible-set machinery: Halton sequences, simplex
   sampling, geometry, exact 2-D areas and the QMC volume estimator. *)

module Vec = Linalg.Vec
module Mat = Linalg.Mat
module Halton = Feasible.Halton
module Simplex = Feasible.Simplex
module Geometry = Feasible.Geometry
module Polygon = Feasible.Polygon
module Volume = Feasible.Volume

let approx eps = Alcotest.float eps

let test_radical_inverse () =
  Alcotest.check (approx 1e-12) "1 base 2" 0.5 (Halton.radical_inverse ~base:2 1);
  Alcotest.check (approx 1e-12) "2 base 2" 0.25 (Halton.radical_inverse ~base:2 2);
  Alcotest.check (approx 1e-12) "3 base 2" 0.75 (Halton.radical_inverse ~base:2 3);
  Alcotest.check (approx 1e-12) "1 base 3" (1. /. 3.)
    (Halton.radical_inverse ~base:3 1);
  Alcotest.check (approx 1e-12) "5 base 3" (7. /. 9.)
    (Halton.radical_inverse ~base:3 5)

let test_halton_range_and_spread () =
  let pts = Halton.sequence ~dim:3 ~n:512 in
  Alcotest.(check bool) "in unit cube" true
    (Array.for_all (Array.for_all (fun x -> x >= 0. && x < 1.)) pts);
  (* Low discrepancy: each axis' mean is close to 0.5 even for few
     points. *)
  for k = 0 to 2 do
    let mean =
      Array.fold_left (fun acc p -> acc +. p.(k)) 0. pts /. 512.
    in
    Alcotest.check (approx 0.02) (Printf.sprintf "axis %d mean" k) 0.5 mean
  done

let test_simplex_map () =
  let x = Simplex.of_cube [| 0.7; 0.2; 0.5 |] in
  (* sorted: 0.2 0.5 0.7 -> gaps 0.2, 0.3, 0.2 *)
  Alcotest.(check (list (float 1e-9))) "gaps" [ 0.2; 0.3; 0.2 ] (Array.to_list x);
  Alcotest.(check bool) "inside simplex" true
    (Array.for_all (fun v -> v >= 0.) x && Array.fold_left ( +. ) 0. x <= 1.)

let test_simplex_volume () =
  Alcotest.check (approx 1e-12) "d=1" 1. (Simplex.volume 1);
  Alcotest.check (approx 1e-12) "d=2" 0.5 (Simplex.volume 2);
  Alcotest.check (approx 1e-12) "d=5" (1. /. 120.) (Simplex.volume 5)

let test_ideal_volume () =
  (* Example 2: l = (10, 11), C_T = 2 -> area = 2^2 / (2 * 110). *)
  let l = Vec.of_list [ 10.; 11. ] in
  Alcotest.check (approx 1e-12) "example 2 ideal" (4. /. 220.)
    (Simplex.ideal_volume ~l ~c_total:2. ());
  (* With a lower bound eating half the budget in each axis the volume
     shrinks by (1 - l.B/C_T)^d. *)
  let lower = Vec.of_list [ 0.05; 0.2 /. 11. ] in
  let slack = 2. -. Vec.dot l lower in
  Alcotest.check (approx 1e-12) "with lower bound"
    (slack ** 2. /. (2. *. 110.))
    (Simplex.ideal_volume ~l ~c_total:2. ~lower ());
  Alcotest.check (approx 1e-12) "infeasible lower bound" 0.
    (Simplex.ideal_volume ~l ~c_total:2. ~lower:(Vec.of_list [ 1.; 1. ]) ())

let test_geometry () =
  let w = Vec.of_list [ 3.; 4. ] in
  Alcotest.check (approx 1e-12) "axis distance" (1. /. 3.)
    (Geometry.axis_distance w 0);
  Alcotest.check (approx 1e-12) "plane distance" 0.2 (Geometry.plane_distance w);
  Alcotest.check (approx 1e-12) "plane distance from point"
    ((1. -. 1.1) /. 5.)
    (Geometry.plane_distance_from ~point:(Vec.of_list [ 0.1; 0.2 ]) w);
  Alcotest.(check bool) "below ideal" false (Geometry.below_ideal w);
  Alcotest.(check bool) "below ideal ok" true
    (Geometry.below_ideal (Vec.of_list [ 0.9; 1.0 ]));
  Alcotest.check (approx 1e-12) "ideal distance d=4" 0.5
    (Geometry.ideal_plane_distance 4);
  Alcotest.check (approx 1e-9) "ball volume d=2" (Float.pi *. 4.)
    (Geometry.hypersphere_volume ~dim:2 ~radius:2.);
  Alcotest.check (approx 1e-9) "ball volume d=3"
    (4. /. 3. *. Float.pi)
    (Geometry.hypersphere_volume ~dim:3 ~radius:1.)

let test_polygon_clip_area () =
  let square = [ (0., 0.); (2., 0.); (2., 2.); (0., 2.) ] in
  Alcotest.check (approx 1e-12) "square area" 4. (Polygon.area square);
  let half = Polygon.clip square ~a:1. ~b:0. ~c:1. in
  Alcotest.check (approx 1e-12) "clipped area" 2. (Polygon.area half);
  let triangle = Polygon.clip square ~a:1. ~b:1. ~c:2. in
  Alcotest.check (approx 1e-12) "triangle area" 2. (Polygon.area triangle)

(* Exact areas of the Example 2 plans with C1 = C2 = 1: plan (a) has
   L^n = [(4,2);(6,9)]. *)
let example2_ln assignment =
  let lo =
    Mat.of_rows
      [
        Vec.of_list [ 4.; 0. ]; Vec.of_list [ 6.; 0. ];
        Vec.of_list [ 0.; 9. ]; Vec.of_list [ 0.; 2. ];
      ]
  in
  let ln = Mat.zeros 2 2 in
  Array.iteri
    (fun j node -> Vec.add_inplace (Mat.row lo j) (Mat.row ln node))
    assignment;
  ln

let test_example2_exact_areas () =
  let caps = Vec.of_list [ 1.; 1. ] in
  let area assignment = Polygon.feasible_area ~ln:(example2_ln assignment) ~caps () in
  (* Plan (a) {o1,o4}|{o2,o3}: constraints 4x+2y<=1 and 6x+9y<=1.
     Plan (c) {o1,o2}|{o3,o4}: 10x<=1 and 11y<=1 -> rectangle. *)
  Alcotest.check (approx 1e-9) "plan (c) rectangle" (1. /. 110.)
    (area [| 0; 0; 1; 1 |]);
  let a = area [| 0; 1; 1; 0 |] in
  Alcotest.(check bool) "plan (a) positive" true (a > 0.);
  (* No plan can beat the ideal area C_T^2/(2 l1 l2) = 4/220. *)
  List.iter
    (fun (_, assignment) ->
      Alcotest.(check bool) "below ideal area" true
        (area assignment <= (4. /. 220.) +. 1e-9))
    Query.Builder.example2_plans

let test_qmc_matches_exact_2d () =
  let caps = Vec.of_list [ 1.; 1. ] in
  let l = Vec.of_list [ 10.; 11. ] in
  List.iter
    (fun (name, assignment) ->
      let ln = example2_ln assignment in
      let exact = Polygon.feasible_area ~ln ~caps () in
      let est = Volume.ratio_qmc ~ln ~caps ~l ~samples:16384 () in
      Alcotest.check (approx 2e-3) (name ^ " volume") exact est.Volume.volume)
    Query.Builder.example2_plans

let test_mc_matches_qmc () =
  let caps = Vec.of_list [ 1.; 1. ] in
  let ln = example2_ln [| 0; 1; 1; 0 |] in
  let rng = Random.State.make [| 4 |] in
  let qmc = Volume.ratio_qmc ~ln ~caps ~samples:16384 () in
  let mc = Volume.ratio_mc ~rng ~ln ~caps ~samples:16384 () in
  Alcotest.check (approx 0.02) "MC agrees with QMC" qmc.Volume.ratio mc.Volume.ratio

let test_is_feasible () =
  let ln = example2_ln [| 0; 1; 1; 0 |] in
  let caps = Vec.of_list [ 1.; 1. ] in
  Alcotest.(check bool) "origin feasible" true
    (Volume.is_feasible ~ln ~caps (Vec.zeros 2));
  Alcotest.(check bool) "far point infeasible" false
    (Volume.is_feasible ~ln ~caps (Vec.of_list [ 1.; 1. ]))

let test_std_error () =
  let ln = example2_ln [| 0; 1; 0; 1 |] in
  let caps = Vec.of_list [ 1.; 1. ] in
  let est = Volume.ratio_qmc ~ln ~caps ~samples:4096 () in
  let expected =
    sqrt (est.Volume.ratio *. (1. -. est.Volume.ratio) /. 4096.)
  in
  Alcotest.check (approx 1e-12) "binomial formula" expected est.Volume.std_error;
  Alcotest.(check bool) "small for large samples" true (est.Volume.std_error < 0.01)

let test_max_scale () =
  let ln = example2_ln [| 0; 0; 1; 1 |] in
  (* node0: 10 r1 <= 1; node1: 11 r2 <= 1. *)
  let caps = Vec.of_list [ 1.; 1. ] in
  Alcotest.check (approx 1e-12) "axis 1 boundary" 0.1
    (Volume.max_scale ~ln ~caps ~direction:(Vec.of_list [ 1.; 0. ]));
  Alcotest.check (approx 1e-12) "diagonal boundary" (1. /. 11.)
    (Volume.max_scale ~ln ~caps ~direction:(Vec.of_list [ 1.; 1. ]));
  (* The boundary point itself is feasible, just beyond it is not. *)
  let t = Volume.max_scale ~ln ~caps ~direction:(Vec.of_list [ 2.; 3. ]) in
  Alcotest.(check bool) "boundary feasible" true
    (Volume.is_feasible ~ln ~caps (Vec.of_list [ 2. *. t; 3. *. t ]));
  Alcotest.(check bool) "beyond infeasible" false
    (Volume.is_feasible ~ln ~caps (Vec.of_list [ 2.02 *. t; 3.03 *. t ]));
  Alcotest.check_raises "zero direction rejected"
    (Invalid_argument "Volume.max_scale: direction must be nonnegative, nonzero")
    (fun () -> ignore (Volume.max_scale ~ln ~caps ~direction:(Vec.zeros 2)))

let test_ratio_of_points () =
  let ln = example2_ln [| 0; 0; 1; 1 |] in
  let caps = Vec.of_list [ 1.; 1. ] in
  let points = [| Vec.zeros 2; Vec.of_list [ 0.05; 0.05 ]; Vec.of_list [ 0.2; 0.2 ] |] in
  Alcotest.check (approx 1e-9) "2 of 3 feasible" (2. /. 3.)
    (Volume.ratio_of_points ~ln ~caps ~points)

let prop_simplex_points_inside =
  QCheck.Test.make ~name:"cube-to-simplex stays inside" ~count:300
    (QCheck.make
       QCheck.Gen.(
         let* d = 1 -- 8 in
         array_size (return d) (float_bound_inclusive 1.)))
    (fun u ->
      let x = Simplex.of_cube u in
      Array.for_all (fun v -> v >= -1e-12) x
      && Array.fold_left ( +. ) 0. x <= 1. +. 1e-12)

let prop_lower_bound_shrinks_volume =
  QCheck.Test.make ~name:"lower bound never enlarges the ideal volume" ~count:100
    (QCheck.make
       QCheck.Gen.(
         let* d = 1 -- 5 in
         let* l = array_size (return d) (float_range 0.5 10.) in
         let* b = array_size (return d) (float_bound_inclusive 0.2) in
         return (l, b)))
    (fun (l, b) ->
      let base = Simplex.ideal_volume ~l ~c_total:5. () in
      let bounded = Simplex.ideal_volume ~l ~c_total:5. ~lower:b () in
      bounded <= base +. 1e-12)

let suite =
  [
    Alcotest.test_case "radical inverse" `Quick test_radical_inverse;
    Alcotest.test_case "halton spread" `Quick test_halton_range_and_spread;
    Alcotest.test_case "simplex map" `Quick test_simplex_map;
    Alcotest.test_case "simplex volume" `Quick test_simplex_volume;
    Alcotest.test_case "ideal volume" `Quick test_ideal_volume;
    Alcotest.test_case "geometry" `Quick test_geometry;
    Alcotest.test_case "polygon clip/area" `Quick test_polygon_clip_area;
    Alcotest.test_case "example 2 exact areas" `Quick test_example2_exact_areas;
    Alcotest.test_case "QMC matches exact (d=2)" `Quick test_qmc_matches_exact_2d;
    Alcotest.test_case "MC matches QMC" `Quick test_mc_matches_qmc;
    Alcotest.test_case "is_feasible" `Quick test_is_feasible;
    Alcotest.test_case "std error" `Quick test_std_error;
    Alcotest.test_case "max scale (ray boundary)" `Quick test_max_scale;
    Alcotest.test_case "ratio of points" `Quick test_ratio_of_points;
    QCheck_alcotest.to_alcotest ~rand:(Test_rand.get ())
      prop_simplex_points_inside;
    QCheck_alcotest.to_alcotest ~rand:(Test_rand.get ())
      prop_lower_bound_shrinks_volume;
  ]
