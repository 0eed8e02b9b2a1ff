(* The end-to-end benchmark.  See README.md for the workloads, the
   metrics and the layer each one measures.

   perfbench --workload W --seed N --seconds S --trace 0|1

   The last line of standard output is one JSON object with the keys
   [correct], [attempted], [failed] and [metrics]. *)

type workload = Plan_batch | Sim_drift | Spe_monitoring

let workloads =
  [ ("plan-batch", Plan_batch); ("sim-drift", Sim_drift); ("spe-monitoring", Spe_monitoring) ]

(* ---------------------------------------------------------------- *)
(* Command line *)

type args = {
  workload : workload;
  workload_name : string;
  seed : int;
  seconds : float;
  trace : bool;
  mode : [ `Run | `Stage | `Digest ];
      (** [`Stage] and [`Digest] are the child processes of a run. *)
}

let usage () =
  prerr_endline
    "usage: perfbench --workload plan-batch|sim-drift|spe-monitoring --seed N \
     --seconds S --trace 0|1";
  exit 2

let parse_args () =
  let workload = ref None and seed = ref None and seconds = ref None in
  let trace = ref None and mode = ref `Run in
  let rec go = function
    | "--workload" :: w :: rest ->
      (match List.assoc_opt w workloads with
      | Some k -> workload := Some (w, k)
      | None -> usage ());
      go rest
    | "--seed" :: s :: rest ->
      seed := int_of_string_opt s;
      go rest
    | "--seconds" :: s :: rest ->
      seconds := float_of_string_opt s;
      go rest
    | "--trace" :: ("0" | "1" as t) :: rest ->
      trace := Some (t = "1");
      go rest
    | "--digest-only" :: rest ->
      mode := `Digest;
      go rest
    | "--stage" :: rest ->
      mode := `Stage;
      go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds) with
  | Some (workload_name, workload), Some seed, Some seconds when seconds > 0. ->
    {
      workload;
      workload_name;
      seed;
      seconds;
      trace = Option.value !trace ~default:false;
      mode = !mode;
    }
  | _ -> usage ()

(* ---------------------------------------------------------------- *)
(* Provenance: which box, toolchain and sources a result comes from. *)

let read_file path =
  try Some (In_channel.with_open_bin path In_channel.input_all) with Sys_error _ -> None

let cpu_model () =
  match read_file "/proc/cpuinfo" with
  | None -> "unknown"
  | Some text ->
    let lines = String.split_on_char '\n' text in
    let model =
      List.find_map
        (fun l ->
          match String.index_opt l ':' with
          | Some i when String.trim (String.sub l 0 i) = "model name" ->
            Some (String.trim (String.sub l (i + 1) (String.length l - i - 1)))
          | _ -> None)
        lines
    in
    Option.value model ~default:"unknown"

(* The checkout is usually not a git repository: fall back to a digest
   of the library sources, which identifies the code just as well. *)
let git_rev () =
  match read_file ".git/HEAD" with
  | None -> "none"
  | Some head -> (
    let head = String.trim head in
    match String.split_on_char ' ' head with
    | [ "ref:"; r ] -> (
      match read_file (Filename.concat ".git" r) with
      | Some rev -> String.trim rev
      | None -> head)
    | _ -> head)

let rec source_files dir =
  match Sys.readdir dir with
  | entries ->
    Array.sort String.compare entries;
    Array.to_list entries
    |> List.concat_map (fun e ->
           let p = Filename.concat dir e in
           if Sys.is_directory p then source_files p
           else if Filename.check_suffix e ".ml" || Filename.check_suffix e ".mli"
           then [ p ]
           else [])
  | exception Sys_error _ -> []

let source_digest () =
  let files = source_files "lib" in
  Digest.to_hex
    (Digest.string
       (String.concat ""
          (List.map
             (fun p -> p ^ Digest.to_hex (Digest.file p))
             files)))

let provenance args =
  Printf.sprintf
    "{\"nproc\": %d, \"cpu\": %S, \"pool_ways\": %d, \"ocaml\": %S, \
     \"git_rev\": %S, \"lib_digest\": %S, \"workload\": %S, \"seed\": %d, \
     \"seconds\": %g, \"trace\": %b}"
    (Domain.recommended_domain_count ())
    (cpu_model ())
    (Parallel.Pool.ways (Parallel.Pool.global ()))
    Sys.ocaml_version (git_rev ()) (source_digest ()) args.workload_name args.seed
    args.seconds args.trace

(* ---------------------------------------------------------------- *)
(* Output *)

type metric = { name : string; value : float; unit_ : string }

let report fmt = Printf.printf (fmt ^^ "\n%!")

let json_number v =
  if not (Float.is_finite v) then "null"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let print_result ~correct ~attempted ~failed metrics =
  let ms =
    List.map
      (fun m ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (json_number m.value)
          m.unit_)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (String.concat ", " ms)

(* Failed operations and violated checks, over the whole run. *)
let attempted = ref 0
let failed = ref 0
let problems = ref []

let tally ~ops ~bad =
  attempted := !attempted + ops;
  failed := !failed + bad

let problem fmt = Printf.ksprintf (fun p -> problems := p :: !problems) fmt

let divergent digests =
  match digests with [] -> false | d :: rest -> List.exists (( <> ) d) rest

(* A percentile that passed the sample guard, or a problem. *)
let percentile_metric ~name ~count r =
  match r with
  | Ok v ->
    report "  %-22s %12.4f ms   (n = %d samples)" name (1e3 *. v) count;
    { name; value = 1e3 *. v; unit_ = "ms" }
  | Error e ->
    problem "%s: %s" name e;
    { name; value = nan; unit_ = "ms" }

let ratio a b = if b > 0. then a /. b else 0.

(* Facts from a stage's outcomes that the per-layer metrics need. *)
type facts = {
  replans : float;  (** Replan attempts. *)
  accepted : float;
  replan_moves : float;
  engine_max_backlog : float;
  engine_migrations : float;
  ctl_replans : float;
  ctl_moves : float;
  datagen_arrivals : float;  (** Tuples of one input set. *)
  spe_tuples : float;
  spe_outputs : float;
}

let no_facts =
  {
    replans = 0.; accepted = 0.; replan_moves = 0.; engine_max_backlog = 0.;
    engine_migrations = 0.; ctl_replans = 0.; ctl_moves = 0.; datagen_arrivals = 0.;
    spe_tuples = 0.; spe_outputs = 0.;
  }

(* What judging a stage's units yields. *)
type verdict = {
  metrics : metric list;  (** The stage's end-to-end metrics. *)
  digest : string;  (** Compared against the other pool sizes. *)
  facts : facts;
}

(* ---------------------------------------------------------------- *)
(* Stages.  A stage is run in units: one block of plan requests, or one
   engine run.  [runner tr inputs] returns the unit and the judge of
   every unit run so far.  The judge divides times (and multiplies
   rates) by [slowdown], the box's slowdown against [Calib.reference]. *)

let plan_runner tr inputs =
  let results = ref [] and next = ref 0 in
  let unit () =
    let b = !next mod Plan_batch.n_blocks in
    incr next;
    results := (b, Plan_batch.serve_block tr inputs.(b)) :: !results
  in
  let judge ~slowdown =
    let results = List.rev !results in
    let all = Array.concat (List.map snd results) in
    (* Every repeat of a block must reproduce its first run. *)
    let first b = List.assoc b results in
    let diverged =
      List.exists (fun (b, o) -> Plan_batch.digest o <> Plan_batch.digest (first b)) results
    in
    let blocks = List.sort_uniq compare (List.map fst results) in
    if diverged then problem "plan-batch: repeated blocks disagree";
    let bad = Array.fold_left (fun a o -> if o.Plan_batch.ok then a else a + 1) 0 all in
    tally ~ops:(Array.length all) ~bad:(if diverged then Array.length all else bad);
    let secs = Array.map (fun o -> o.Plan_batch.ms /. 1e3) all in
    let count = Array.length secs in
    let distinct = Array.concat (List.map first blocks) in
    let ratio_mean =
      Array.fold_left (fun a o -> a +. o.Plan_batch.ratio) 0. distinct
      /. float_of_int (Array.length distinct)
    in
    report "plan-batch: %d requests (%d blocks of %d), %d failed" count (List.length results)
      (Array.length Plan_batch.block) bad;
    List.iter
      (fun m ->
        let cls =
          List.filter_map
            (fun o -> if o.Plan_batch.ops = m then Some o.Plan_batch.ms else None)
            (Array.to_list all)
        in
        report "  m = %4d: median %.1f ms over %d requests" m (Stats.median cls)
          (List.length cls))
      (List.sort_uniq compare (Array.to_list (Array.map (fun o -> o.Plan_batch.ops) all)));
    let pct name p =
      percentile_metric ~name ~count (Result.map (fun v -> v /. slowdown) (Stats.percentile secs p))
    in
    let p50 = pct "plan_p50_ms" 50. in
    let p90 = pct "plan_p90_ms" 90. in
    report "  %-22s %12.6f      (mean over %d distinct requests)" "plan_ratio_mean" ratio_mean
      (Array.length distinct);
    let count f = float_of_int (Array.fold_left (fun a o -> a + f o) 0 all) in
    {
      metrics = [ p50; p90; { name = "plan_ratio_mean"; value = ratio_mean; unit_ = "ratio" } ];
      digest = Plan_batch.digest (first 0);
      facts =
        {
          no_facts with
          replans = float_of_int (Array.length all);
          accepted = count (fun o -> if o.Plan_batch.accepted then 1 else 0);
          replan_moves = count (fun o -> o.Plan_batch.moves);
        };
    }
  in
  (unit, judge)

let sim_runner tr inputs =
  let results = ref [] and pooled = ref [] and next = ref 0 in
  let unit () =
    let i = !next mod Sim_drift.n_realisations in
    incr next;
    let o, latencies = Sim_drift.run tr inputs i in
    (* Latencies of each realisation's first run only: repeats are
       checked equal through the digest. *)
    if i = List.length !pooled then pooled := latencies :: !pooled;
    results := o :: !results
  in
  let judge ~slowdown =
    let runs = List.rev !results in
    let first i = List.find (fun o -> o.Sim_drift.realisation = i) runs in
    let diverged =
      List.exists (fun o -> o.Sim_drift.digest <> (first o.Sim_drift.realisation).Sim_drift.digest) runs
    in
    if diverged then problem "sim-drift: repeated realisations disagree";
    List.iter
      (fun o ->
        List.iter (problem "sim-drift: %s") o.Sim_drift.oracle;
        tally ~ops:o.Sim_drift.attempted
          ~bad:(if diverged then o.Sim_drift.attempted else o.Sim_drift.failed))
      runs;
    let rates = List.map (fun o -> float_of_int o.Sim_drift.events /. o.Sim_drift.wall) runs in
    let eps = slowdown *. Stats.median rates in
    let sum f = List.fold_left (fun a o -> a + f o) 0 runs in
    report
      "sim-drift: %d runs of %d realisations: %d events, %d arrivals, %d controller calls, %d replans, %d moves, %d migrations"
      (List.length runs) (List.length !pooled)
      (sum (fun o -> o.Sim_drift.events))
      (sum (fun o -> o.Sim_drift.attempted))
      (sum (fun o -> o.Sim_drift.decisions))
      (sum (fun o -> o.Sim_drift.replans))
      (sum (fun o -> o.Sim_drift.moves))
      (sum (fun o -> o.Sim_drift.migrations));
    report "  %-22s %12.1f 1/s  (median of %d runs)" "sim_events_per_s" eps (List.length rates);
    let latencies =
      List.fold_left
        (fun acc l -> Result.bind acc (fun a -> Result.map (fun l -> l :: a) l))
        (Ok []) !pooled
      |> Result.map Array.concat
    in
    let pct name p =
      let r = Result.bind latencies (fun l -> Stats.percentile l p) in
      let count = match latencies with Ok l -> Array.length l | Error _ -> 0 in
      percentile_metric ~name ~count r
    in
    let p50 = pct "sim_latency_p50_ms" 50. in
    let p99 = pct "sim_latency_p99_ms" 99. in
    let sumf f = float_of_int (sum f) in
    {
      metrics = [ { name = "sim_events_per_s"; value = eps; unit_ = "1/s" }; p50; p99 ];
      digest = (first 0).Sim_drift.digest;
      facts =
        {
          no_facts with
          replans = sumf (fun o -> o.Sim_drift.replans + o.Sim_drift.rejects);
          accepted = sumf (fun o -> o.Sim_drift.replans);
          replan_moves = sumf (fun o -> o.Sim_drift.moves);
          engine_max_backlog =
            float_of_int (List.fold_left (fun a o -> max a o.Sim_drift.max_backlog) 0 runs);
          engine_migrations = sumf (fun o -> o.Sim_drift.migrations);
          ctl_replans = sumf (fun o -> o.Sim_drift.replans);
          ctl_moves = sumf (fun o -> o.Sim_drift.moves);
        };
    }
  in
  (unit, judge)

let spe_runner tr inputs =
  let prepared =
    match Spe_monitoring.prepare tr inputs with
    | Ok p -> p
    | Error e -> failwith ("monitoring query: " ^ e)
  in
  let results = ref [] in
  let unit () = results := Spe_monitoring.run tr inputs prepared :: !results in
  let judge ~slowdown =
    let runs = List.rev !results in
    let first = List.hd runs in
    let diverged = divergent (List.map (fun o -> o.Spe_monitoring.digest) runs) in
    if diverged then problem "spe-monitoring: runs disagree";
    List.iter
      (fun o ->
        List.iter (problem "spe-monitoring: %s") o.Spe_monitoring.oracle;
        tally ~ops:o.Spe_monitoring.attempted
          ~bad:(if diverged then o.Spe_monitoring.attempted else o.Spe_monitoring.failed))
      runs;
    let tuples o = float_of_int o.Spe_monitoring.tuples in
    let outputs o = o.Spe_monitoring.outputs in
    let tps = slowdown *. Stats.median (List.map (fun o -> tuples o /. o.Spe_monitoring.wall) runs) in
    report
      "spe-monitoring: %d runs of %d tuples, %d outputs, cutoff %.1f s, mean profiled cost %.0f ns/tuple (not used)"
      (List.length runs) first.Spe_monitoring.attempted (outputs first)
      prepared.Spe_monitoring.cutoff
      (1e9 *. prepared.Spe_monitoring.profiled_cost);
    report "  %-22s %12.1f 1/s  (median of %d runs)" "spe_tuples_per_s" tps (List.length runs);
    let p99 =
      percentile_metric ~name:"spe_latency_p99_ms" ~count:first.Spe_monitoring.latency_count
        first.Spe_monitoring.p99
    in
    let sum f = List.fold_left (fun a o -> a +. f o) 0. runs in
    {
      metrics = [ { name = "spe_tuples_per_s"; value = tps; unit_ = "1/s" }; p99 ];
      digest = first.Spe_monitoring.digest;
      facts =
        {
          no_facts with
          datagen_arrivals = float_of_int first.Spe_monitoring.attempted;
          spe_tuples = sum tuples;
          spe_outputs = sum (fun o -> float_of_int (outputs o));
        };
    }
  in
  (unit, judge)

(* The runner of one stage on freshly generated inputs. *)
let runner tr ~seed = function
  | Plan_batch -> plan_runner tr (Plan_batch.generate tr ~seed)
  | Sim_drift -> sim_runner tr (Sim_drift.generate tr ~seed)
  | Spe_monitoring -> spe_runner tr (Spe_monitoring.generate tr ~seed)

(* ---------------------------------------------------------------- *)
(* Units *)

let min_units = function
  | Plan_batch -> Plan_batch.n_blocks + 1  (* every block once; p90 needs 100 requests *)
  | Sim_drift -> Sim_drift.n_realisations
  | Spe_monitoring -> 3

(* Run [unit] until the units add up to [seconds] and at least
   [min_units] ran; returns their total wall time, their count and the
   box's slowdown over them (see [Calib]).  The current major GC cycle
   is finished before each unit, so that no unit pays for one an
   earlier unit began. *)
let repeat ?(seconds = 0.) ~min_units unit =
  let calib = ref [] in
  let rec go used n =
    if n >= min_units && used >= seconds then
      (used, n, Stats.median !calib /. Calib.reference)
    else begin
      Gc.major ();
      calib := Calib.time () :: !calib;
      let t0 = Unix.gettimeofday () in
      unit ();
      go (used +. (Unix.gettimeofday () -. t0)) (n + 1)
    end
  in
  go 0. 0

(* ---------------------------------------------------------------- *)
(* Determinism across pool sizes *)

(* The digest of the first unit of the workload's own stage, from a
   fresh process at pool size [ways]. *)
let child_digest args ways =
  let env =
    Printf.sprintf "ROD_NUM_DOMAINS=%d" ways
    :: List.filter
         (fun e -> not (String.starts_with ~prefix:"ROD_NUM_DOMAINS=" e))
         (Array.to_list (Unix.environment ()))
  in
  let argv =
    [|
      Sys.executable_name; "--workload"; args.workload_name; "--seed";
      string_of_int args.seed; "--seconds"; "1"; "--digest-only";
    |]
  in
  let ((out, inp, err) as proc) =
    Unix.open_process_args_full Sys.executable_name argv (Array.of_list env)
  in
  close_out inp;
  let text = In_channel.input_all out in
  let (_ : string) = In_channel.input_all err in
  match Unix.close_process_full proc with
  | Unix.WEXITED 0 -> List.nth_opt (List.rev (String.split_on_char '\n' (String.trim text))) 0
  | _ -> None

(* The workload's own stage must give the same digest at every pool
   size: the run's own, and 1 and 2. *)
let pool_checks args ~digest =
  let own = Parallel.Pool.ways (Parallel.Pool.global ()) in
  List.iter
    (fun k ->
      if k <> own then
        match child_digest args k with
        | Some d when d = digest -> report "pool check: %d ways agree with %d ways" k own
        | Some d -> problem "pool %d digest %s differs from pool %d digest %s" k d own digest
        | None -> problem "pool %d check process failed" k)
    [ 1; 2 ]

(* One unit of the workload's own stage; prints its digest. *)
let digest_only args =
  let off = Tracer.create false in
  let unit, judge = runner off ~seed:args.seed args.workload in
  unit ();
  print_endline (judge ~slowdown:1.).digest

(* ---------------------------------------------------------------- *)
(* End-to-end run (tracing off) *)

let setup_reps = 9

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

(* Median wall time of the stage's input generation, scaled by the
   box's slowdown measured between the repetitions. *)
let setup_seconds args =
  let off = Tracer.create false and seed = args.seed in
  let generate () =
    match args.workload with
    | Plan_batch -> ignore (Sys.opaque_identity (Plan_batch.generate off ~seed))
    | Sim_drift -> ignore (Sys.opaque_identity (Sim_drift.generate off ~seed))
    | Spe_monitoring -> ignore (Sys.opaque_identity (Spe_monitoring.generate off ~seed))
  in
  let reps =
    List.init setup_reps (fun _ ->
        let c = Calib.time () in
        let t0 = Unix.gettimeofday () in
        generate ();
        (Unix.gettimeofday () -. t0, c))
  in
  let slowdown = Stats.median (List.map snd reps) /. Calib.reference in
  Stats.median (List.map fst reps) /. slowdown

(* A stage as a child process of an end-to-end run.  It generates its
   inputs, prints [ready], then runs one unit per [unit] line on its
   standard input, answering [done SECONDS].  On [finish] it judges its
   units and prints its report, ending with
   [stage-result DIGEST ATTEMPTED FAILED SETUP_S PEAK_HEAP_MB] followed by
   [name=value=unit] per metric.  Its timings are scaled by the box's
   slowdown over the run (see [Calib]). *)
let stage args =
  let setup_s = setup_seconds args in
  let unit, judge = runner (Tracer.create false) ~seed:args.seed args.workload in
  let calib = ref [] in
  report "ready";
  let rec serve () =
    match input_line stdin with
    | "unit" ->
      Gc.major ();
      calib := Calib.time () :: !calib;
      let t0 = Unix.gettimeofday () in
      unit ();
      report "done %.17g" (Unix.gettimeofday () -. t0);
      serve ()
    | "finish" -> ()
    | cmd -> failwith ("stage: unknown command " ^ cmd)
  in
  serve ();
  let slowdown = Stats.median !calib /. Calib.reference in
  report "%s: box slowdown %.3f (median of %d calibrations; the timings below are scaled by it)"
    args.workload_name slowdown (List.length !calib);
  let v = judge ~slowdown in
  List.iter (fun p -> report "FAILED %s" p) (List.rev !problems);
  report "stage-result %s %d %d %.17g %.17g%s" v.digest !attempted !failed setup_s
    (peak_heap_mb ())
    (String.concat ""
       (List.map (fun m -> Printf.sprintf " %s=%.17g=%s" m.name m.value m.unit_) v.metrics))

type child = {
  workload : workload;
  share : float;  (** Share of the run's measured seconds. *)
  proc : in_channel * out_channel * in_channel;
  mutable used : float;  (** Wall seconds of its units so far. *)
  mutable units : int;
}

let spawn args w ~share =
  let name = fst (List.find (fun (_, k) -> k = w) workloads) in
  let argv =
    [|
      Sys.executable_name; "--workload"; name; "--seed"; string_of_int args.seed;
      "--seconds"; "1"; "--stage";
    |]
  in
  let ((out, _, _) as proc) =
    Unix.open_process_args_full Sys.executable_name argv (Unix.environment ())
  in
  if input_line out <> "ready" then failwith (name ^ ": stage process did not start");
  { workload = w; share; proc; used = 0.; units = 0 }

let command c cmd =
  let _, inp, _ = c.proc in
  output_string inp (cmd ^ "\n");
  flush inp

let run_unit c =
  let out, _, _ = c.proc in
  command c "unit";
  match String.split_on_char ' ' (input_line out) with
  | [ "done"; dt ] ->
    c.used <- c.used +. float_of_string dt;
    c.units <- c.units + 1
  | _ -> failwith "stage process: bad reply"

(* Ends the child and returns its report lines. *)
let finish c =
  let out, _, err = c.proc in
  command c "finish";
  let text = In_channel.input_all out in
  let (_ : string) = In_channel.input_all err in
  match Unix.close_process_full c.proc with
  | Unix.WEXITED 0 -> String.split_on_char '\n' (String.trim text)
  | _ -> failwith "stage process failed"

(* Run units until they add up to [seconds] and every stage has its
   minimum, always from the stage furthest below its share.  The stages'
   units interleave, so each stage's samples spread over the whole run
   rather than one stretch of it; on a box whose speed drifts over
   seconds, that is what keeps the stages' figures steady. *)
let interleave ~seconds children =
  let total () = List.fold_left (fun a c -> a +. c.used) 0. children in
  let rec go () =
    let pending = List.filter (fun c -> c.units < min_units c.workload) children in
    let over = total () >= seconds in
    if not (pending = [] && over) then begin
      let cands = if over then pending else children in
      let key c = c.used /. c.share in
      run_unit (List.fold_left (fun b c -> if key c < key b then c else b) (List.hd cands) cands);
      go ()
    end
  in
  go ()

let parse_stage_result line =
  match String.split_on_char ' ' line with
  | "stage-result" :: digest :: att :: bad :: setup :: heap :: ms ->
    tally ~ops:(int_of_string att) ~bad:(int_of_string bad);
    let metric m =
      match String.split_on_char '=' m with
      | [ name; value; unit_ ] -> { name; value = float_of_string value; unit_ }
      | _ -> failwith ("bad stage metric " ^ m)
    in
    (digest, float_of_string setup, float_of_string heap, List.map metric ms)
  | _ -> failwith ("bad stage result " ^ line)

(* Every run reports every end-to-end metric, so it runs all three
   stages, each in a process of its own: in one shared process, the
   later stages ran on a heap the earlier ones had grown.  The
   workload's own stage gets half of the measured seconds, the other
   two a quarter each. *)
let end_to_end (args : args) =
  let children = ref [] in
  let results =
    try
      List.iter
        (fun w ->
          let share = if w = args.workload then 0.5 else 0.25 in
          children := !children @ [ spawn args w ~share ])
        [ Plan_batch; Sim_drift; Spe_monitoring ];
      interleave ~seconds:args.seconds !children;
      List.map
        (fun c ->
          let lines = finish c in
          List.iter
            (fun l ->
              if String.starts_with ~prefix:"FAILED " l then
                problem "%s" (String.sub l 7 (String.length l - 7))
              else if not (String.starts_with ~prefix:"stage-result " l) then report "%s" l)
            lines;
          (c, parse_stage_result (List.nth lines (List.length lines - 1))))
        !children
    with e ->
      (* Close every child's pipes and wait for it before giving up. *)
      List.iter (fun c -> try ignore (Unix.close_process_full c.proc) with _ -> ()) !children;
      raise e
  in
  let _, (digest, _, heap, _) = List.find (fun (c, _) -> c.workload = args.workload) results in
  pool_checks args ~digest;
  let setup_s = List.fold_left (fun a (_, (_, setup, _, _)) -> a +. setup) 0. results in
  report "setup_s %.4f s (the stages' median input generation times, summed)" setup_s;
  let ok_frac = 1. -. ratio (float_of_int !failed) (float_of_int !attempted) in
  [
    { name = "setup_s"; value = setup_s; unit_ = "s" };
    { name = "peak_heap_mb"; value = heap; unit_ = "MB" };
    { name = "ok_frac"; value = ok_frac; unit_ = "frac" };
  ]
  @ List.concat_map (fun (_, (_, _, _, ms)) -> ms) results

(* ---------------------------------------------------------------- *)
(* Traced run: per-layer metrics of the workload's own stage *)

let counter_names =
  [
    "rod_ls_moves_total"; "rod_ls_passes_total"; "rod_ls_rejects_total";
    "rod_volume_samples_total"; "rod_place_ops_total"; "rod_sim_events_total";
  ]

let counters () = List.map (fun n -> (n, Tracer.counter n)) counter_names

let layer_metrics tr ~delta ~facts ~wall ~overhead =
  let s name = Tracer.busy tr name in
  let w name = Tracer.words tr name in
  let ls_moves = delta "rod_ls_moves_total" in
  let events = delta "rod_sim_events_total" in
  let calls name = match Tracer.find tr name with Some st -> st.Tracer.calls | None -> 0 in
  let m name value unit_ = { name; value; unit_ } in
  [
    m "local_search.busy_s" (s "local_search") "s";
    m "local_search.words" (w "local_search") "words";
    m "local_search.moves" ls_moves "count";
    m "local_search.passes" (delta "rod_ls_passes_total") "count";
    m "local_search.accept_frac"
      (ratio ls_moves (ls_moves +. delta "rod_ls_rejects_total"))
      "frac";
    m "volume.busy_s" (s "volume") "s";
    m "volume.words" (w "volume") "words";
    m "volume.samples" (delta "rod_volume_samples_total") "count";
    m "replanner.busy_s" (s "replanner") "s";
    m "replanner.accept_frac" (ratio facts.accepted facts.replans) "frac";
    m "replanner.moves" facts.replan_moves "count";
    m "rod_algorithm.busy_s" (s "rod_algorithm") "s";
    m "rod_algorithm.ops" (delta "rod_place_ops_total") "count";
    m "graph_io.busy_s" (s "graph_io") "s";
    m "plan_check.busy_s" (s "plan_check") "s";
    m "problem.busy_s" (s "problem") "s";
    m "engine.self_s" (Tracer.self tr "engine") "s";
    m "engine.events" events "count";
    m "engine.words_per_event" (ratio (w "engine" -. w "controller") events) "words";
    m "engine.max_backlog" facts.engine_max_backlog "count";
    m "engine.migrations" facts.engine_migrations "count";
    m "controller.busy_s" (s "controller") "s";
    m "controller.calls" (float_of_int (calls "controller")) "count";
    m "controller.replans" facts.ctl_replans "count";
    m "controller.moves" facts.ctl_moves "count";
    m "randgraph.busy_s" (s "randgraph") "s";
    m "generators.busy_s" (s "generators") "s";
    m "datagen.busy_s" (s "datagen") "s";
    m "datagen.arrivals" facts.datagen_arrivals "count";
    m "dist_executor.busy_s" (s "dist_executor") "s";
    m "dist_executor.words_per_tuple" (ratio (w "dist_executor") facts.spe_tuples) "words";
    m "dist_executor.outputs" facts.spe_outputs "count";
    m "cql.busy_s" (s "cql") "s";
    m "profiler.busy_s" (s "profiler") "s";
    m "executor.busy_s" (s "executor") "s";
    m "checks.busy_s" (s "checks") "s";
    m "trace.wall_s" wall "s";
    m "trace.unattributed_s" (wall -. Tracer.attributed tr) "s";
    m "trace.overhead_frac" overhead "frac";
  ]

let trace_path args =
  Printf.sprintf ".bench_build/perfbench-trace-%s-%d.json" args.workload_name args.seed

(* The workload's own stage runs untraced for half of the seconds; then
   its inputs are generated again and the same number of units run
   traced.  The traced part's wall time counts generation, preparation
   and the units, not the collections between units. *)
let traced (args : args) =
  let min_units = min_units args.workload in
  let run_u, _ = runner (Tracer.create false) ~seed:args.seed args.workload in
  let untraced, n, slow_u = repeat ~seconds:(args.seconds /. 2.) ~min_units run_u in
  let before = counters () in
  let tr = Tracer.create true in
  let t0 = Unix.gettimeofday () in
  let run_t, judge = runner tr ~seed:args.seed args.workload in
  let prepare = Unix.gettimeofday () -. t0 in
  let traced, _, slow_t = repeat ~min_units:n run_t in
  let after = counters () in
  let delta name = float_of_int (List.assoc name after - List.assoc name before) in
  let verdict = judge ~slowdown:1. in
  pool_checks args ~digest:verdict.digest;
  (* Both passes scaled by the box's slowdown during each. *)
  let overhead = ratio (traced /. slow_t) (untraced /. slow_u) -. 1. in
  let metrics = layer_metrics tr ~delta ~facts:verdict.facts ~wall:(prepare +. traced) ~overhead in
  report "traced %d units: untraced %.4f s (slowdown %.3f), traced %.4f s (slowdown %.3f), overhead %+.2f%%"
    n untraced slow_u traced slow_t (100. *. overhead);
  List.iter (fun m -> report "  %-32s %16.6f %s" m.name m.value m.unit_) metrics;
  (try
     if not (Sys.file_exists ".bench_build") then Sys.mkdir ".bench_build" 0o755;
     Tracer.write_chrome tr ~meta:(provenance args) (trace_path args);
     report "spans written to %s" (trace_path args)
   with Sys_error e -> report "spans not written: %s" e);
  metrics

let () =
  let args = parse_args () in
  match args.mode with
  | `Digest -> digest_only args
  | `Stage -> stage args
  | `Run ->
    report "provenance %s" (provenance args);
    let metrics = if args.trace then traced args else end_to_end args in
    List.iter (fun p -> report "FAILED %s" p) (List.rev !problems);
    let finite = List.for_all (fun m -> Float.is_finite m.value) metrics in
    print_result
      ~correct:(!problems = [] && !failed = 0 && finite)
      ~attempted:!attempted ~failed:!failed metrics
