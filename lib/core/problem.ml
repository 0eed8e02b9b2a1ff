module Vec = Linalg.Vec
module Mat = Linalg.Mat

type t = {
  lo : Mat.t;
  caps : Vec.t;
  load_table : (int * float array array) option Atomic.t;
}

let create ~lo ~caps =
  if Mat.rows lo < 1 then invalid_arg "Problem.create: no operators";
  if Mat.cols lo < 1 then invalid_arg "Problem.create: no rate variables";
  if Vec.dim caps < 1 then invalid_arg "Problem.create: no nodes";
  Array.iteri
    (fun j row ->
      Array.iteri
        (fun k x ->
          if not (Float.is_finite x) then
            invalid_arg
              (Printf.sprintf
                 "Problem.create: non-finite load coefficient %g at operator \
                  %d, variable %d"
                 x j k);
          if x < 0. then invalid_arg "Problem.create: negative load coefficient")
        row)
    lo;
  Array.iteri
    (fun i c ->
      if not (Float.is_finite c) then
        invalid_arg
          (Printf.sprintf "Problem.create: non-finite capacity %g at node %d" c
             i))
    caps;
  if Vec.exists (fun c -> c <= 0.) caps then
    invalid_arg "Problem.create: capacities must be strictly positive";
  let sums = Mat.col_sums lo in
  if Vec.exists (fun s -> s <= 0.) sums then
    invalid_arg
      "Problem.create: some rate variable carries no load (all-zero column)";
  { lo = Mat.copy lo; caps = Vec.copy caps; load_table = Atomic.make None }

(* One entry, replaced when the sample count changes.  Two domains that
   miss at once both build the same table from the same immutable
   inputs, so whichever [set] lands last is as good as the other. *)
let sample_loads t ~samples build =
  match Atomic.get t.load_table with
  | Some (k, table) when k = samples -> table
  | _ ->
    let table = build () in
    Atomic.set t.load_table (Some (samples, table));
    table

let of_model model ~caps =
  create ~lo:(Query.Load_model.load_coefficients model) ~caps

let of_graph graph ~caps = of_model (Query.Load_model.derive graph) ~caps

let homogeneous_caps ~n ~cap =
  if n < 1 then invalid_arg "Problem.homogeneous_caps: n < 1";
  if cap <= 0. then invalid_arg "Problem.homogeneous_caps: cap <= 0";
  Vec.create n cap

let n_ops t = Mat.rows t.lo

let n_nodes t = Vec.dim t.caps

let dim t = Mat.cols t.lo

let op_load t j = Mat.row t.lo j

let total_coefficients t = Mat.col_sums t.lo

let total_capacity t = Vec.sum t.caps

let normalized_point t r =
  if Vec.dim r <> dim t then invalid_arg "Problem.normalized_point: bad dim";
  let l = total_coefficients t in
  let c_total = total_capacity t in
  Vec.init (dim t) (fun k -> l.(k) *. r.(k) /. c_total)

let pp fmt t =
  Format.fprintf fmt
    "@[<v>problem: %d ops, %d nodes, %d vars, C_T=%g@,L^o =@,%a@]" (n_ops t)
    (n_nodes t) (dim t) (total_capacity t) Mat.pp t.lo
