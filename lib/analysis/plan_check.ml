module Vec = Linalg.Vec
module Mat = Linalg.Mat

type severity =
  | Error
  | Warning

type diag = {
  severity : severity;
  code : string;
  message : string;
}

type report = {
  diags : diag list;
  axis_bound : float array;
}

let rules =
  [
    ("bad-capacity", "a node capacity is non-finite or non-positive, or the cluster is empty");
    ("dimension-mismatch", "the load matrix width disagrees with the expected variable count");
    ("empty-plan", "the plan has no operators");
    ("nan-coefficient", "a load coefficient is NaN or infinite");
    ("negative-coefficient", "a load coefficient is negative");
    ("dead-operator", "an operator's load row is all zero");
    ("unloaded-variable", "a rate variable carries no load anywhere");
    ("starved-operator", "every input of an operator has statically-zero rate");
    ("infeasible-operator", "an operator cannot sustain unit rate on any node");
    ("resiliency-capped", "a per-axis Theorem-1 bound caps the feasible-set ratio below threshold");
  ]

let sarif_rules =
  Sarif.rules_of_catalogue
    ~help_uri:"DESIGN.md#8-static-analysis-rodanalysis" rules

let sarif_run ~file report =
  let result d =
    {
      Sarif.rule_id = d.code;
      level = (match d.severity with Error -> "error" | Warning -> "warning");
      message = d.message;
      file = Some file;
      line = None;
      col = None;
    }
  in
  {
    Sarif.tool = "rod-plan-check";
    rules = sarif_rules;
    results = List.map result report.diags;
  }

let errors r = List.filter (fun d -> d.severity = Error) r.diags

let warnings r = List.filter (fun d -> d.severity = Warning) r.diags

let ok r = errors r = []

let finite x = Float.is_finite x

let check_matrix ?(threshold = 0.5) ?expect_vars ?op_name ?var_name ~lo ~caps ()
    =
  let m = Mat.rows lo and d = Mat.cols lo in
  let n = Vec.dim caps in
  let op_name =
    match op_name with Some f -> f | None -> Printf.sprintf "operator %d"
  in
  let var_name =
    match var_name with Some f -> f | None -> Printf.sprintf "variable %d"
  in
  let rev_diags = ref [] in
  let add severity code fmt =
    Printf.ksprintf
      (fun message -> rev_diags := { severity; code; message } :: !rev_diags)
      fmt
  in
  (* Well-formedness. *)
  if n = 0 then add Error "bad-capacity" "the cluster has no nodes";
  for i = 0 to n - 1 do
    let c = caps.(i) in
    if not (finite c) then
      add Error "bad-capacity" "node %d has a non-finite capacity" i
    else if c <= 0. then
      add Error "bad-capacity" "node %d has non-positive capacity %g" i c
  done;
  (match expect_vars with
  | Some expected when expected <> d ->
    add Error "dimension-mismatch"
      "the load matrix has %d rate variables but the model declares %d" d
      expected
  | Some _ | None -> ());
  if m = 0 then add Warning "empty-plan" "the plan has no operators";
  let values_ok = ref true in
  for j = 0 to m - 1 do
    for k = 0 to d - 1 do
      let v = Mat.get lo j k in
      if not (finite v) then begin
        values_ok := false;
        add Error "nan-coefficient" "%s has a non-finite load coefficient on %s"
          (op_name j) (var_name k)
      end
      else if v < 0. then begin
        values_ok := false;
        add Error "negative-coefficient"
          "%s has negative load coefficient %g on %s (load cannot shrink \
           when rates grow)"
          (op_name j) v (var_name k)
      end
    done
  done;
  (* Structural checks: dead rows, unloaded columns. *)
  if !values_ok then begin
    for j = 0 to m - 1 do
      let row = Mat.row lo j in
      if m > 0 && Vec.for_all (fun v -> v <= 0.) row then
        add Warning "dead-operator"
          "%s carries no load on any variable: it is dead weight in the model"
          (op_name j)
    done;
    for k = 0 to d - 1 do
      if m > 0 && Vec.for_all (fun v -> v <= 0.) (Mat.col lo k) then
        add Warning "unloaded-variable"
          "%s carries no load on any operator: the feasible set is unbounded \
           along it"
          (var_name k)
    done
  end;
  (* Feasibility and the per-axis Theorem-1 bound, only meaningful on
     clean values and a non-empty positive-capacity cluster. *)
  let caps_ok =
    n > 0 && Vec.for_all (fun c -> finite c && c > 0.) caps
  in
  let axis_bound =
    if not (!values_ok && caps_ok) then [||]
    else begin
      let cap_max = Vec.max_elt caps in
      let c_total = Vec.sum caps in
      let l = Mat.col_sums lo in
      Array.init d (fun k ->
          (* Extent of any assignment's feasible set along axis k: every
             operator loading the axis must fit alone on the largest
             node.  The binding operator is the heaviest one. *)
          let heaviest = ref (-1) in
          for j = 0 to m - 1 do
            let v = Mat.get lo j k in
            if v > 0. && (!heaviest < 0 || v > Mat.get lo !heaviest k) then
              heaviest := j
          done;
          if !heaviest < 0 then 1.
          else begin
            let lo_max = Mat.get lo !heaviest k in
            if lo_max > cap_max then
              add Error "infeasible-operator"
                "%s needs %g capacity per unit rate of %s but the largest \
                 node offers %g: no placement sustains even unit rate"
                (op_name !heaviest) lo_max (var_name k) cap_max;
            let extent = cap_max /. lo_max in
            let ideal_extent = c_total /. l.(k) in
            let frac = Float.min 1. (extent /. ideal_extent) in
            let bound = 1. -. ((1. -. frac) ** float_of_int d) in
            if bound < threshold then
              add Warning "resiliency-capped"
                "%s caps the feasible-set ratio along %s at %.3f (< %.2f): \
                 it reaches only %.3g of the ideal extent %.3g"
                (op_name !heaviest) (var_name k) bound threshold extent
                ideal_extent;
            bound
          end)
    end
  in
  { diags = List.rev !rev_diags; axis_bound }

let model_var_name model k =
  let origins = model.Query.Load_model.var_origins in
  if k < 0 || k >= Array.length origins then Printf.sprintf "variable %d" k
  else
    match origins.(k) with
    | Query.Load_model.System s -> Printf.sprintf "input rate r%d" s
    | Query.Load_model.Join_pairs j ->
      Printf.sprintf "pair rate of join op %d" j
    | Query.Load_model.Cut_output j ->
      Printf.sprintf "output rate of op %d" j

let check_model ?threshold model ~caps =
  let graph = model.Query.Load_model.graph in
  let lo = Query.Load_model.load_coefficients model in
  let names = Query.Graph.restrict_names graph in
  let op_name j =
    if j >= 0 && j < Array.length names then
      Printf.sprintf "operator %d (%s)" j names.(j)
    else Printf.sprintf "operator %d" j
  in
  let report =
    check_matrix ?threshold
      ~expect_vars:(Array.length model.Query.Load_model.var_origins)
      ~op_name ~var_name:(model_var_name model) ~lo ~caps ()
  in
  (* Graph-aware structural check: an operator is starved when every one
     of its inputs is an operator stream with statically-zero rate (the
     linearized out-rate row of the producer is all zero).  System
     inputs can always carry tuples, so they never starve a consumer. *)
  let out_rate = model.Query.Load_model.out_rate in
  let stream_is_dead = function
    | Query.Graph.Sys_input _ -> false
    | Query.Graph.Op_output u -> Vec.for_all (fun v -> v <= 0.) (Mat.row out_rate u)
  in
  let starved = ref [] in
  for j = Query.Graph.n_ops graph - 1 downto 0 do
    let sources = Query.Graph.sources graph j in
    if sources <> [] && List.for_all stream_is_dead sources then
      starved :=
        {
          severity = Warning;
          code = "starved-operator";
          message =
            Printf.sprintf
              "%s only consumes streams with statically-zero rate: it will \
               never receive a tuple"
              (op_name j);
        }
        :: !starved
  done;
  { report with diags = report.diags @ !starved }

let check_graph ?threshold graph ~caps =
  check_model ?threshold (Query.Load_model.derive graph) ~caps

let assert_ok ?(what = "plan") report =
  match errors report with
  | [] -> ()
  | errs ->
    invalid_arg
      (Printf.sprintf "%s rejected by static analysis: %s" what
         (String.concat "; " (List.map (fun d -> d.message) errs)))

let pp fmt report =
  let count sev = List.length (List.filter (fun d -> d.severity = sev) report.diags) in
  Format.fprintf fmt "@[<v>";
  List.iter
    (fun d ->
      Format.fprintf fmt "%s: [%s] %s@,"
        (match d.severity with Error -> "error" | Warning -> "warning")
        d.code d.message)
    report.diags;
  if Array.length report.axis_bound > 0 then begin
    Format.fprintf fmt "axis resiliency bounds:";
    Array.iter (fun b -> Format.fprintf fmt " %.3f" b) report.axis_bound;
    Format.fprintf fmt "@,"
  end;
  Format.fprintf fmt "static analysis: %s (%d errors, %d warnings)@]"
    (if ok report then "ok" else "REJECTED")
    (count Error) (count Warning)

let json_escape s =
  let buffer = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buffer "\\\""
      | '\\' -> Buffer.add_string buffer "\\\\"
      | '\n' -> Buffer.add_string buffer "\\n"
      | c when Char.code c < 32 ->
        Buffer.add_string buffer (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buffer c)
    s;
  Buffer.contents buffer

let to_json report =
  let buffer = Buffer.create 512 in
  let out fmt = Printf.ksprintf (Buffer.add_string buffer) fmt in
  out "{\n  \"schema\": \"rod-plan-check/1\",\n";
  out "  \"ok\": %b,\n" (ok report);
  out "  \"diagnostics\": [\n";
  List.iteri
    (fun idx d ->
      out "    { \"severity\": %S, \"code\": %S, \"message\": \"%s\" }%s\n"
        (match d.severity with Error -> "error" | Warning -> "warning")
        d.code (json_escape d.message)
        (if idx = List.length report.diags - 1 then "" else ","))
    report.diags;
  out "  ],\n";
  out "  \"axis_bound\": [%s]\n"
    (String.concat ", "
       (Array.to_list
          (Array.map
             (fun b -> if Float.is_nan b then "null" else Printf.sprintf "%.6g" b)
             report.axis_bound)));
  out "}\n";
  Buffer.contents buffer
