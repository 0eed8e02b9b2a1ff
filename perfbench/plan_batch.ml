(* plan-batch: the control plane as a closed loop with one client.  Each
   deployment request is a .rodgraph text that goes through parsing,
   static checking, problem construction, ROD placement, local search,
   the QMC feasible-set estimate and a budgeted replan at a drifted rate
   point.  No simulation runs. *)

type request = {
  text : string;  (** The query graph, in .rodgraph form. *)
  m : int;  (** Its operator count, for the report. *)
  n_nodes : int;
  drift : float array;
      (** Per-stream multiplier of the replan's rate point, relative to
          0.8 of the stream's balanced share of the ideal hyperplane. *)
}

type inputs = request array array  (** Blocks of requests. *)

(* (operators, nodes) of the request classes, and the order in which
   one block of 16 requests draws them: five sixteenths each of the two
   small classes and three sixteenths each of the two large ones.  With
   a quarter each, the median would sit exactly on the gap between the
   m = 200 and m = 400 classes and jump between them from run to run;
   this mix puts it inside the m = 200 class and p90 inside the
   m = 1000 class. *)
let classes = [| (100, 10); (200, 16); (400, 32); (1000, 64) |]
let block = [| 0; 1; 2; 3; 0; 1; 0; 1; 2; 3; 0; 1; 0; 1; 2; 3 |]
let n_blocks = 6
let n_streams = 2

(* [n_blocks] blocks of distinct requests.  The client serves one block
   per unit and cycles through them, so any prefix keeps the mix. *)
let generate tr ~seed =
  Tracer.span tr "randgraph" (fun () ->
      let rng = Random.State.make [| seed; 0x9a1 |] in
      Array.init n_blocks (fun _ ->
          Array.map
            (fun c ->
              let m, n = classes.(c) in
              let graph =
                Query.Randgraph.generate_trees ~rng ~n_inputs:n_streams
                  ~ops_per_tree:(m / n_streams)
              in
              let drift =
                Array.init n_streams (fun k ->
                    if k = 0 then 2.5 +. Random.State.float rng 0.5
                    else 0.2 +. Random.State.float rng 0.3)
              in
              { text = Query.Graph_io.to_string graph; m; n_nodes = n; drift })
            block))

type outcome = {
  ops : int;  (** Operators of the request's graph. *)
  ms : float;  (** Wall time of the request. *)
  ok : bool;
  ratio : float;  (** QMC feasible-set ratio of the delivered plan. *)
  accepted : bool;  (** Whether the replanner accepted its replan. *)
  moves : int;  (** Moves of the replan. *)
  digest : string;
}

let in_range ~m ~n a =
  Array.length a = m && Array.for_all (fun i -> i >= 0 && i < n) a

let serve tr (req : request) =
  let g = Tracer.span tr "graph_io" (fun () -> Query.Graph_io.of_string req.text) in
  let caps = Rod.Problem.homogeneous_caps ~n:req.n_nodes ~cap:1. in
  let report =
    Tracer.span tr "plan_check" (fun () ->
        Analysis.Plan_check.check_graph g ~caps)
  in
  if not (Analysis.Plan_check.ok report) then None
  else begin
    let problem = Tracer.span tr "problem" (fun () -> Rod.Problem.of_graph g ~caps) in
    let m = Rod.Problem.n_ops problem and n = req.n_nodes in
    let placed =
      Tracer.span tr "rod_algorithm" (fun () -> Rod.Rod_algorithm.place problem)
    in
    let polished =
      Tracer.span tr "local_search" (fun () ->
          Rod.Local_search.improve problem placed)
    in
    let est =
      Tracer.span tr "volume" (fun () ->
          Rod.Plan.volume_qmc
            (Rod.Plan.make problem polished.Rod.Local_search.assignment))
    in
    let l = Rod.Problem.total_coefficients problem in
    let c_total = Rod.Problem.total_capacity problem in
    let rates =
      Array.mapi
        (fun k f -> 0.8 *. f *. c_total /. (float_of_int n_streams *. l.(k)))
        req.drift
    in
    let replan =
      Tracer.span tr "replanner" (fun () ->
          Dynamic.Replanner.replan ~rates ~budget:3
            ~cost_of:(Dynamic.Statesize.graph_cost g)
            problem ~assignment:polished.Rod.Local_search.assignment)
    in
    let delivered = replan.Dynamic.Replanner.assignment in
    if
      not
        (in_range ~m ~n placed
        && in_range ~m ~n polished.Rod.Local_search.assignment
        && in_range ~m ~n delivered)
    then None
    else
      let ratio = est.Feasible.Volume.ratio in
      let digest =
        Printf.sprintf "%h %h %d %d %b %d %h %s" ratio
          polished.Rod.Local_search.ratio polished.Rod.Local_search.moves
          polished.Rod.Local_search.passes replan.Dynamic.Replanner.accepted
          (List.length replan.Dynamic.Replanner.moves)
          replan.Dynamic.Replanner.ratio_after
          (Query.Graph_io.assignment_to_string delivered)
      in
      Some
        ( ratio,
          replan.Dynamic.Replanner.accepted,
          List.length replan.Dynamic.Replanner.moves,
          Digest.to_hex (Digest.string digest) )
  end

(* One request, timed; a raise is a failed request, not a crash. *)
let request tr req =
  Tracer.next_request tr;
  let t0 = Unix.gettimeofday () in
  let result = try serve tr req with _ -> None in
  let ms = 1e3 *. (Unix.gettimeofday () -. t0) in
  match result with
  | Some (ratio, accepted, moves, digest) ->
    { ops = req.m; ms; ok = true; ratio; accepted; moves; digest }
  | None ->
    { ops = req.m; ms; ok = false; ratio = nan; accepted = false; moves = 0; digest = "failed" }

(* One block of requests, in order. *)
let serve_block tr requests = Array.map (request tr) requests

let digest (outs : outcome array) =
  Digest.to_hex
    (Digest.string (String.concat "," (Array.to_list (Array.map (fun o -> o.digest) outs))))
