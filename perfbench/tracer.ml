(* Spans recorded from the benchmark's own code, around each call into a
   layer's public function.  Nothing inside the libraries is traced:
   the library counters are read through [Obs.snapshot] deltas.

   A disabled tracer is a plain function call, so the untraced
   (end-to-end) runs and the traced run share one code path. *)

let now = Unix.gettimeofday

(* Words allocated by this domain so far: minor allocations plus
   direct major allocations, without double-counting promotions. *)
let allocated_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

type stat = {
  mutable busy : float;  (** Wall seconds inside the span, children included. *)
  mutable self : float;  (** [busy] minus the time of nested spans. *)
  mutable words : float;  (** Words allocated inside, children included. *)
  mutable calls : int;
}

type span = {
  id : int;
  parent : int;  (** [-1] for a root span. *)
  request : int;  (** Spans of one request share this id. *)
  name : string;
  start : float;
  stop : float;
}

type frame = { fid : int; mutable child : float }

type t = {
  on : bool;
  origin : float;
  stats : (string, stat) Hashtbl.t;
  mutable stack : frame list;
  mutable spans : span list;  (** Newest first. *)
  mutable next_id : int;
  mutable request : int;
}

let create on =
  {
    on;
    origin = now ();
    stats = Hashtbl.create 32;
    stack = [];
    spans = [];
    next_id = 0;
    request = -1;
  }

(* Later spans belong to a new request. *)
let next_request t = t.request <- t.request + 1

let stat t name =
  match Hashtbl.find_opt t.stats name with
  | Some s -> s
  | None ->
    let s = { busy = 0.; self = 0.; words = 0.; calls = 0 } in
    Hashtbl.replace t.stats name s;
    s

let finish t name frame ~t0 ~w0 =
  let t1 = now () in
  let dt = t1 -. t0 in
  let s = stat t name in
  s.busy <- s.busy +. dt;
  s.self <- s.self +. (dt -. frame.child);
  s.words <- s.words +. (allocated_words () -. w0);
  s.calls <- s.calls + 1;
  t.stack <- List.tl t.stack;
  let parent =
    match t.stack with
    | p :: _ ->
      p.child <- p.child +. dt;
      p.fid
    | [] -> -1
  in
  t.spans <-
    { id = frame.fid; parent; request = t.request; name; start = t0; stop = t1 }
    :: t.spans

(* [span t name f] runs [f ()] inside a span named after the layer. *)
let span t name f =
  if not t.on then f ()
  else begin
    let frame = { fid = t.next_id; child = 0. } in
    t.next_id <- t.next_id + 1;
    t.stack <- frame :: t.stack;
    let w0 = allocated_words () in
    let t0 = now () in
    match f () with
    | r ->
      finish t name frame ~t0 ~w0;
      r
    | exception e ->
      finish t name frame ~t0 ~w0;
      raise e
  end

let find t name = Hashtbl.find_opt t.stats name
let busy t name = match find t name with Some s -> s.busy | None -> 0.
let self t name = match find t name with Some s -> s.self | None -> 0.
let words t name = match find t name with Some s -> s.words | None -> 0.

(* Self time of every root span's subtree, i.e. all attributed time. *)
let attributed t = Hashtbl.fold (fun _ s acc -> acc +. s.self) t.stats 0.

(* Chrome trace_event JSON of every span, oldest first; [meta] is a JSON
   object stored as the trace's [otherData]. *)
let write_chrome t ~meta path =
  let oc = open_out path in
  Printf.fprintf oc "{\"otherData\":%s,\"traceEvents\":[" meta;
  List.iteri
    (fun i s ->
      if i > 0 then output_string oc ",\n";
      Printf.fprintf oc
        "{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"request\":%d}}"
        s.name
        (1e6 *. (s.start -. t.origin))
        (1e6 *. (s.stop -. s.start))
        s.id s.parent s.request)
    (List.rev t.spans);
  output_string oc "]}\n";
  close_out oc

(* Value of a counter in the process-wide registry, summed over its
   label sets (0 when absent). *)
let counter name =
  List.fold_left
    (fun acc (s : Obs.Metric.sample) ->
      match s.Obs.Metric.s_value with
      | Obs.Metric.Counter_v v when s.Obs.Metric.s_name = name -> acc + v
      | _ -> acc)
    0 (Obs.snapshot ())
