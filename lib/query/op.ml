type linear = {
  costs : float array;
  selectivities : float array;
}

type join = {
  window : float;
  cost_per_pair : float;
  sel_per_pair : float;
}

type var_selectivity = {
  cost : float;
  sel_lo : float;
  sel_hi : float;
  sel_now : float;
}

type kind =
  | Linear of linear
  | Join of join
  | Var_selectivity of var_selectivity

type t = {
  name : string;
  kind : kind;
  out_xfer_cost : float;
}

let arity op =
  match op.kind with
  | Linear l -> Array.length l.costs
  | Join _ -> 2
  | Var_selectivity _ -> 1

let check_positive what x =
  if not (Float.is_finite x) then
    invalid_arg (Printf.sprintf "Op: non-finite %s (%g)" what x);
  if x < 0. then invalid_arg (Printf.sprintf "Op: negative %s (%g)" what x)

let make_linear ?(name = "op") ?(xfer = 0.) ~costs ~selectivities () =
  if Array.length costs = 0 then invalid_arg "Op: operator with no inputs";
  if Array.length costs <> Array.length selectivities then
    invalid_arg "Op: costs/selectivities arity mismatch";
  Array.iter (check_positive "cost") costs;
  Array.iter (check_positive "selectivity") selectivities;
  check_positive "transfer cost" xfer;
  { name; kind = Linear { costs; selectivities }; out_xfer_cost = xfer }

let filter ?(name = "filter") ?xfer ~cost ~sel () =
  make_linear ~name ?xfer ~costs:[| cost |] ~selectivities:[| sel |] ()

let map ?(name = "map") ?xfer ~cost () =
  make_linear ~name ?xfer ~costs:[| cost |] ~selectivities:[| 1. |] ()

let union ?(name = "union") ?xfer ~cost ~n_inputs () =
  if n_inputs < 1 then invalid_arg "Op.union: n_inputs < 1";
  make_linear ~name ?xfer
    ~costs:(Array.make n_inputs cost)
    ~selectivities:(Array.make n_inputs 1.)
    ()

let aggregate ?(name = "aggregate") ?xfer ~cost ~sel () =
  make_linear ~name ?xfer ~costs:[| cost |] ~selectivities:[| sel |] ()

let delay ?(name = "delay") ?xfer ~cost ~sel () =
  make_linear ~name ?xfer ~costs:[| cost |] ~selectivities:[| sel |] ()

let join ?(name = "join") ?(xfer = 0.) ~window ~cost_per_pair ~sel () =
  check_positive "window" window;
  check_positive "cost" cost_per_pair;
  check_positive "selectivity" sel;
  check_positive "transfer cost" xfer;
  {
    name;
    kind = Join { window; cost_per_pair; sel_per_pair = sel };
    out_xfer_cost = xfer;
  }

let var_sel ?(name = "var_sel") ?(xfer = 0.) ~cost ~sel_lo ~sel_hi ?sel_now () =
  check_positive "cost" cost;
  check_positive "selectivity" sel_lo;
  check_positive "selectivity" sel_hi;
  if sel_lo > sel_hi then invalid_arg "Op.var_sel: sel_lo > sel_hi";
  let sel_now =
    match sel_now with Some s -> s | None -> (sel_lo +. sel_hi) /. 2.
  in
  if sel_now < sel_lo || sel_now > sel_hi then
    invalid_arg "Op.var_sel: sel_now outside [sel_lo, sel_hi]";
  {
    name;
    kind = Var_selectivity { cost; sel_lo; sel_hi; sel_now };
    out_xfer_cost = xfer;
  }

let linear_exn op =
  match op.kind with
  | Linear l -> l
  | Join _ | Var_selectivity _ ->
    invalid_arg (Printf.sprintf "Op.linear_exn: %s is nonlinear" op.name)

let is_nonlinear op =
  match op.kind with
  | Linear _ -> false
  | Join _ | Var_selectivity _ -> true

let pp fmt op =
  match op.kind with
  | Linear { costs; selectivities } ->
    Format.fprintf fmt "%s(linear, arity=%d, cost=%a, sel=%a)" op.name
      (Array.length costs) Linalg.Vec.pp costs Linalg.Vec.pp selectivities
  | Join { window; cost_per_pair; sel_per_pair } ->
    Format.fprintf fmt "%s(join, w=%g, c=%g, s=%g)" op.name window cost_per_pair
      sel_per_pair
  | Var_selectivity { cost; sel_lo; sel_hi; sel_now } ->
    Format.fprintf fmt "%s(var_sel, c=%g, s in [%g,%g], now %g)" op.name cost
      sel_lo sel_hi sel_now
