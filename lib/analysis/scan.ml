(* rodscan's engine: interprocedural analysis over compiler-libs
   typedtrees.  Where Lint pattern-matches parse trees file by file,
   Scan loads the [.cmt] files dune already produces, so every
   identifier carries its fully resolved [Path.t] — [Random.float]
   laundered through two helper calls, or a ref captured by a closure
   handed to the domain pool, is visible no matter how it is spelled at
   the use site.  Three passes share one call-graph/summary
   infrastructure; see scan.mli for the rule catalogue. *)

open Typedtree
module SSet = Set.Make (String)
module SMap = Map.Make (String)

let deterministic_marker = "rodlint: deterministic"
let alloc_ok_marker = "rodscan: alloc-ok"
let expect_marker = "rodscan-expect:"

let passes = [ "determinism-taint"; "parallel-race"; "hot-allocation" ]

let rules =
  [
    ( "det/taint",
      "nondeterminism (global Random state, wall clocks, Domain.self, \
       Hashtbl iteration order) flows into a deterministic-marked module" );
    ( "race/captured-ref",
      "a closure handed to the domain pool assigns a captured non-Atomic \
       ref" );
    ( "race/captured-array",
      "a pool closure writes a captured array at a chunk-independent index" );
    ( "race/captured-field",
      "a pool closure writes a mutable field of a captured value" );
    ( "race/captured-call",
      "a pool closure mutates a captured container (Hashtbl, Buffer, Queue, \
       Stack) through a stdlib call" );
    ( "alloc/closure",
      "a hot-marked function allocates a closure on every loop iteration" );
    ( "alloc/literal",
      "a hot function allocates a tuple/record/array/constructor per loop \
       iteration" );
    ("alloc/ref", "a hot function allocates a ref cell per loop iteration");
    ( "alloc/partial-apply",
      "a partial application inside a hot loop builds a closure per \
       iteration" );
    ( "alloc/boxed-float",
      "a cross-module call inside a hot loop returns a boxed float per \
       iteration" );
    ( "alloc/unused-hatch",
      "an alloc-ok escape hatch suppresses nothing" );
    ( "race/aliased-ref",
      "a pool closure mutates captured state through a let-bound alias or \
       record-field projection" );
  ]

let sarif_rules =
  Sarif.rules_of_catalogue
    ~help_uri:"DESIGN.md#10-typedtree-analysis-rodscan" rules

(* ---------- canonical names ----------

   [Path.name] prints fully resolved but variously spelled paths:
   [Stdlib.Random.float], [Feasible.Simplex.ideal_volume],
   [Pool.map_chunks] (through a module alias), [Feasible__Volume] (a
   dune-mangled unit name).  Canonicalization splits on [.] and on the
   dune [__] separator and drops a leading [Stdlib], so every spelling
   of the same thing compares equal component-wise. *)

let split_dunder s =
  let n = String.length s in
  let out = ref [] and start = ref 0 and i = ref 0 in
  while !i + 1 < n do
    if s.[!i] = '_' && s.[!i + 1] = '_' then begin
      out := String.sub s !start (!i - !start) :: !out;
      i := !i + 2;
      start := !i
    end
    else incr i
  done;
  out := String.sub s !start (n - !start) :: !out;
  List.rev !out

let canon_components name =
  String.split_on_char '.' name
  |> List.concat_map split_dunder
  |> List.filter (fun s -> s <> "")
  |> function
  | "Stdlib" :: (_ :: _ as rest) -> rest
  | comps -> comps

let canon_of_path p = canon_components (Path.name p)
let canon_unit_name modname = String.concat "." (canon_components modname)

(* ---------- units ---------- *)

type unit_info = {
  canon : string;
  source : string;
  text : string;
  str : structure;
  hot : bool;
  deterministic : bool;
  alloc_ok : (int, bool ref) Hashtbl.t;
  expect : string list;
}

let unit_of_structure ~modname ~source ~text str =
  let alloc_ok = Hashtbl.create 7 in
  List.iteri
    (fun idx line ->
      if Marker.find line alloc_ok_marker <> None then
        Hashtbl.replace alloc_ok (idx + 1) (ref false))
    (String.split_on_char '\n' text);
  {
    canon = canon_unit_name modname;
    source = Allowlist.normalize_path source;
    text;
    str;
    hot = Marker.in_text text Lint.hot_marker;
    deterministic = Marker.in_text text deterministic_marker;
    alloc_ok;
    expect = Marker.expect expect_marker text;
  }

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let unit_of_cmt path =
  match Cmt_format.read_cmt path with
  | exception _ -> None
  | cmt -> (
    match cmt.Cmt_format.cmt_annots with
    | Cmt_format.Implementation str ->
      let source =
        match cmt.Cmt_format.cmt_sourcefile with Some s -> s | None -> path
      in
      let text = if Sys.file_exists source then read_file source else "" in
      Some (unit_of_structure ~modname:cmt.Cmt_format.cmt_modname ~source ~text str)
    | _ -> None)

let env_initialized = ref false

let unit_of_source ~filename text =
  if not !env_initialized then begin
    Compmisc.init_path ();
    env_initialized := true
  end;
  let env = Compmisc.initial_env () in
  let lexbuf = Lexing.from_string text in
  Lexing.set_filename lexbuf filename;
  let parsed = Parse.implementation lexbuf in
  let tstr, _, _, _, _ =
    try Typemod.type_structure env parsed
    with exn ->
      failwith
        (Printf.sprintf "Scan.unit_of_source: %s does not typecheck (%s)"
           filename
           (Printexc.to_string exn))
  in
  let modname =
    String.capitalize_ascii Filename.(remove_extension (basename filename))
  in
  unit_of_structure ~modname ~source:filename ~text tstr

(* ---------- taint lattice ---------- *)

module Taint = struct
  type t = SSet.t

  let bottom = SSet.empty
  let source = SSet.singleton
  let of_list = SSet.of_list
  let join = SSet.union
  let equal = SSet.equal
  let is_tainted t = not (SSet.is_empty t)
  let to_list = SSet.elements
end

(* ---------- definitions and the call graph ---------- *)

type def = {
  key : string;  (* "Feasible.Volume.estimate" *)
  def_loc : Location.t;
  body : expression;
  owner : unit_info;
}

(* Top-level (and nested-module-level) value bindings become call-graph
   nodes; [let () = ...] and destructuring bindings become anonymous
   nodes so their effects still enter the graph.  Local functions fold
   into their enclosing node. *)
let defs_of_unit u =
  let defs = ref [] and idtbl = Hashtbl.create 64 and anon = ref 0 in
  let rec structure prefix (s : structure) = List.iter (item prefix) s.str_items
  and item prefix it =
    match it.str_desc with
    | Tstr_value (_, vbs) -> List.iter (binding prefix it.str_loc) vbs
    | Tstr_eval (e, _) ->
      incr anon;
      defs :=
        {
          key = String.concat "." prefix ^ Printf.sprintf ".(toplevel-%d)" !anon;
          def_loc = it.str_loc;
          body = e;
          owner = u;
        }
        :: !defs
    | Tstr_module mb -> module_binding prefix mb
    | Tstr_recmodule mbs -> List.iter (module_binding prefix) mbs
    | _ -> ()
  and binding prefix item_loc vb =
    match vb.vb_pat.pat_desc with
    | Tpat_var (id, name) ->
      let key = String.concat "." (prefix @ [ name.txt ]) in
      Hashtbl.replace idtbl (Ident.unique_name id) key;
      defs := { key; def_loc = name.loc; body = vb.vb_expr; owner = u } :: !defs
    | _ ->
      incr anon;
      defs :=
        {
          key =
            String.concat "." (prefix @ [ Printf.sprintf "(binding-%d)" !anon ]);
          def_loc = item_loc;
          body = vb.vb_expr;
          owner = u;
        }
        :: !defs
  and module_binding prefix mb =
    let name = match mb.mb_name.txt with Some s -> s | None -> "_" in
    let rec modexpr (m : module_expr) =
      match m.mod_desc with
      | Tmod_structure s -> structure (prefix @ [ name ]) s
      | Tmod_constraint (me, _, _, _) -> modexpr me
      | Tmod_functor (_, me) -> modexpr me
      | _ -> ()
    in
    modexpr mb.mb_expr
  in
  structure [ u.canon ] u.str;
  (List.rev !defs, idtbl)

(* Every module-path suffix of at least two components indexes a node,
   so [Pool.map_chunks], [Parallel.Pool.map_chunks] and
   [Parallel__Pool.map_chunks] all resolve to the same definition.  A
   suffix shared by several definitions links to all of them — a
   conservative over-approximation. *)
let build_index all_defs =
  let add key v idx =
    SMap.update key
      (function None -> Some [ v ] | Some l -> Some (v :: l))
      idx
  in
  List.fold_left
    (fun idx d ->
      let comps = String.split_on_char '.' d.key in
      let rec go l idx =
        match l with
        | [] | [ _ ] -> idx
        | _ :: tl -> go tl (add (String.concat "." l) d.key idx)
      in
      go comps idx)
    SMap.empty all_defs

let resolve index comps =
  let rec go = function
    | [] | [ _ ] -> []
    | l -> (
      match SMap.find_opt (String.concat "." l) index with
      | Some keys -> List.sort_uniq String.compare keys
      | None -> go (List.tl l))
  in
  go comps

(* ---------- nondeterminism sources ---------- *)

let source_of_comps = function
  | [ "Random"; "State"; "make_self_init" ] -> Some "Random.State.make_self_init"
  | [ "Random"; "State"; _ ] -> None
  | [ "Random"; f ] -> Some ("Random." ^ f)
  | [ "Unix"; (("gettimeofday" | "time" | "times") as f) ] -> Some ("Unix." ^ f)
  | [ "Sys"; "time" ] -> Some "Sys.time"
  | [ "Domain"; "self" ] -> Some "Domain.self"
  | [ "Hashtbl"; (("iter" | "fold" | "to_seq" | "to_seq_keys" | "to_seq_values") as f) ]
    ->
    Some ("Hashtbl." ^ f)
  | _ -> None

(* ---------- per-function summaries ---------- *)

type summary = {
  direct : (string * Location.t) list;  (* (source name, site) *)
  callees : (string * Location.t) list;  (* (node key, site) *)
}

let merge_summary a b =
  { direct = a.direct @ b.direct; callees = a.callees @ b.callees }

let summarize ~index ~idtbl d =
  let direct = ref [] and callees = ref [] in
  let expr it (e : expression) =
    (match e.exp_desc with
    | Texp_ident (Path.Pident id, _, _) -> (
      match Hashtbl.find_opt idtbl (Ident.unique_name id) with
      | Some key when key <> d.key -> callees := (key, e.exp_loc) :: !callees
      | _ -> ())
    | Texp_ident (p, _, _) -> (
      let comps = canon_of_path p in
      match source_of_comps comps with
      | Some s -> direct := (s, e.exp_loc) :: !direct
      | None ->
        List.iter
          (fun key -> if key <> d.key then callees := (key, e.exp_loc) :: !callees)
          (resolve index comps))
    | _ -> ());
    Tast_iterator.default_iterator.expr it e
  in
  let it = { Tast_iterator.default_iterator with expr } in
  it.expr it d.body;
  { direct = List.rev !direct; callees = List.rev !callees }

(* ---------- taint fixpoint ---------- *)

let fixpoint (summaries : summary SMap.t) : Taint.t SMap.t =
  let taint =
    ref
      (SMap.map
         (fun s -> Taint.of_list (List.map fst s.direct))
         summaries)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    SMap.iter
      (fun key s ->
        let cur = SMap.find key !taint in
        let next =
          List.fold_left
            (fun acc (callee, _) ->
              match SMap.find_opt callee !taint with
              | Some t -> Taint.join acc t
              | None -> acc)
            cur s.callees
        in
        if not (Taint.equal cur next) then begin
          taint := SMap.add key next !taint;
          changed := true
        end)
      summaries
  done;
  !taint

let solve nodes =
  let summaries =
    List.fold_left
      (fun m (name, direct, callees) ->
        let s =
          {
            direct = List.map (fun x -> (x, Location.none)) direct;
            callees = List.map (fun c -> (c, Location.none)) callees;
          }
        in
        SMap.update name
          (function None -> Some s | Some prev -> Some (merge_summary prev s))
          m)
      SMap.empty nodes
  in
  fixpoint summaries |> SMap.bindings
  |> List.map (fun (k, t) -> (k, Taint.to_list t))

(* Shortest call chain from [start] to a node that touches [src]
   directly; callee lists keep source order, so the chain (and thus the
   report text) is deterministic. *)
let witness summaries taint src start =
  let rec bfs visited = function
    | [] -> None
    | (key, path) :: rest -> (
      if SSet.mem key visited then bfs visited rest
      else
        let visited = SSet.add key visited in
        match SMap.find_opt key summaries with
        | None -> bfs visited rest
        | Some s -> (
          match List.find_opt (fun (name, _) -> name = src) s.direct with
          | Some (_, loc) -> Some (List.rev (key :: path), loc)
          | None ->
            let next =
              List.filter_map
                (fun (callee, _) ->
                  match SMap.find_opt callee taint with
                  | Some t when SSet.mem src t ->
                    Some (callee, key :: path)
                  | _ -> None)
                s.callees
            in
            bfs visited (rest @ next)))
  in
  bfs SSet.empty [ (start, []) ]

(* ---------- diagnostics ---------- *)

type scan_stats = {
  units_scanned : int;
  defs_analyzed : int;
  hatches_used : int;
}

type ctx = { mutable diags : Lint.diag list; mutable hatches_used : int }

let add_diag ctx (u : unit_info) (loc : Location.t) rule fmt =
  let p = loc.Location.loc_start in
  Printf.ksprintf
    (fun message ->
      ctx.diags <-
        {
          Lint.file = u.source;
          line = p.Lexing.pos_lnum;
          col = p.Lexing.pos_cnum - p.Lexing.pos_bol;
          rule;
          message;
        }
        :: ctx.diags)
    fmt

(* ---------- pass 1: determinism taint ---------- *)

let loc_string (loc : Location.t) =
  Printf.sprintf "%s:%d"
    (Allowlist.normalize_path loc.loc_start.Lexing.pos_fname)
    loc.loc_start.Lexing.pos_lnum

let det_pass ctx defs summaries taint =
  let seen = Hashtbl.create 16 in
  List.iter
    (fun d ->
      if d.owner.deterministic && not (Hashtbl.mem seen d.key) then begin
        Hashtbl.add seen d.key ();
        match SMap.find_opt d.key taint with
        | Some t when Taint.is_tainted t ->
          let src = SSet.min_elt t in
          let chain, loc =
            match witness summaries taint src d.key with
            | Some (path, site) -> (String.concat " -> " path, site)
            | None -> (d.key, d.def_loc)
          in
          (* Report at the definition in the marked module; the chain
             names the laundering path and the seeding site. *)
          add_diag ctx d.owner d.def_loc "det/taint"
            "%s is reachable from nondeterministic source %s in a \
             deterministic-marked module (%s => %s at %s); thread a seeded \
             Random.State / injected Obs.Clock, or add a justified \
             rodscan.allow entry"
            d.key src chain src (loc_string loc)
        | _ -> ()
      end)
    defs

(* ---------- pass 2: parallel race lint ---------- *)

let pool_fns =
  SSet.of_list [ "parallel_for"; "map_reduce"; "map_chunks"; "map_chunks_i"; "run" ]

let mutating_calls =
  [
    [ "Hashtbl"; "add" ]; [ "Hashtbl"; "replace" ]; [ "Hashtbl"; "remove" ];
    [ "Hashtbl"; "reset" ]; [ "Hashtbl"; "clear" ]; [ "Buffer"; "add_string" ];
    [ "Buffer"; "add_char" ]; [ "Buffer"; "add_bytes" ];
    [ "Buffer"; "add_buffer" ]; [ "Buffer"; "clear" ]; [ "Buffer"; "reset" ];
    [ "Queue"; "add" ]; [ "Queue"; "push" ]; [ "Queue"; "pop" ];
    [ "Queue"; "take" ]; [ "Queue"; "clear" ]; [ "Stack"; "push" ];
    [ "Stack"; "pop" ]; [ "Stack"; "clear" ];
  ]

let ident_comps (e : expression) =
  match e.exp_desc with
  | Texp_ident (p, _, _) -> canon_of_path p
  | _ -> []

let rec last2 = function
  | [ a; b ] -> Some (a, b)
  | _ :: tl -> last2 tl
  | [] -> None

(* Idents bound anywhere inside the closure (parameters, lets, match
   patterns, for-loop indices): writes that involve them are chunk- or
   call-local by construction. *)
let bound_idents (clo : expression) =
  let acc = ref SSet.empty in
  let add id = acc := SSet.add (Ident.unique_name id) !acc in
  let pat : type k. Tast_iterator.iterator -> k general_pattern -> unit =
   fun it p ->
    (match p.pat_desc with
    | Tpat_var (id, _) -> add id
    | Tpat_alias (_, id, _) -> add id
    | _ -> ());
    Tast_iterator.default_iterator.pat it p
  in
  let expr it (e : expression) =
    (match e.exp_desc with
    | Texp_for (id, _, _, _, _, _) -> add id
    | Texp_function { param; _ } -> add param
    | _ -> ());
    Tast_iterator.default_iterator.expr it e
  in
  let it = { Tast_iterator.default_iterator with pat; expr } in
  it.expr it clo;
  !acc

(* A captured target: a local ident not bound inside the closure, or
   any module-qualified value (those live outside the closure by
   definition). *)
let captured bound (e : expression) =
  match e.exp_desc with
  | Texp_ident (Path.Pident id, _, _) ->
    if SSet.mem (Ident.unique_name id) bound then None else Some (Ident.name id)
  | Texp_ident (p, _, _) -> Some (String.concat "." (canon_of_path p))
  | _ -> None

let free_local_idents (e : expression) =
  let acc = ref SSet.empty in
  let expr it (e : expression) =
    (match e.exp_desc with
    | Texp_ident (Path.Pident id, _, _) ->
      acc := SSet.add (Ident.unique_name id) !acc
    | _ -> ());
    Tast_iterator.default_iterator.expr it e
  in
  let it = { Tast_iterator.default_iterator with expr } in
  it.expr it e;
  !acc

(* Closure-local lets whose right-hand side is captured state — an
   ident not bound inside the closure, or a record-field projection of
   one — smuggle the same mutable object under a fresh, closure-bound
   name.  [alias_map] chases those bindings (transitively) back to the
   captured root so mutations through the alias are reported as
   [race/aliased-ref] rather than slipping past the direct-capture
   checks above. *)
let alias_map bound (clo : expression) =
  let aliases = Hashtbl.create 7 in
  let rec root (e : expression) =
    match e.exp_desc with
    | Texp_ident (Path.Pident id, _, _) ->
      let uname = Ident.unique_name id in
      if SSet.mem uname bound then Hashtbl.find_opt aliases uname
      else Some (Ident.name id)
    | Texp_ident (p, _, _) -> Some (String.concat "." (canon_of_path p))
    | Texp_field (subject, _, label) ->
      Option.map (fun r -> r ^ "." ^ label.lbl_name) (root subject)
    | _ -> None
  in
  let expr it (e : expression) =
    (match e.exp_desc with
    | Texp_let (_, vbs, _) ->
      List.iter
        (fun vb ->
          match (vb.vb_pat.pat_desc, vb.vb_expr.exp_desc) with
          | Tpat_var (id, _), (Texp_ident _ | Texp_field _) -> (
            match root vb.vb_expr with
            | Some r -> Hashtbl.replace aliases (Ident.unique_name id) r
            | None -> ())
          | _ -> ())
        vbs
    | _ -> ());
    Tast_iterator.default_iterator.expr it e
  in
  let it = { Tast_iterator.default_iterator with expr } in
  it.expr it clo;
  aliases

let aliased aliases (e : expression) =
  match e.exp_desc with
  | Texp_ident (Path.Pident id, _, _) -> (
    match Hashtbl.find_opt aliases (Ident.unique_name id) with
    | Some r -> Some (Printf.sprintf "%s (alias of %s)" (Ident.name id) r)
    | None -> None)
  | _ -> None

let check_pool_closure ctx u poolfn (clo : expression) =
  let bound = bound_idents clo in
  let aliases = alias_map bound clo in
  let alias_mutation e target what =
    match aliased aliases target with
    | Some v ->
      add_diag ctx u e.exp_loc "race/aliased-ref"
        "%s through %s inside a Pool.%s closure; the alias shares the \
         captured object, so this races exactly like a direct capture"
        what v poolfn
    | None -> ()
  in
  let pos_args args =
    List.filter_map
      (function Asttypes.Nolabel, Some a -> Some a | _ -> None)
      args
  in
  let expr it (e : expression) =
    (match e.exp_desc with
    | Texp_apply (fn, args) -> (
      let comps = ident_comps fn in
      match (comps, pos_args args) with
      | [ ":=" ], target :: _ -> (
        match captured bound target with
        | Some v ->
          add_diag ctx u e.exp_loc "race/captured-ref"
            "assignment to captured ref %s inside a Pool.%s closure; use \
             per-chunk accumulators combined in chunk order, or an Atomic"
            v poolfn
        | None -> alias_mutation e target "assignment to captured ref")
      | [ (("incr" | "decr") as f) ], target :: _ -> (
        match captured bound target with
        | Some v ->
          add_diag ctx u e.exp_loc "race/captured-ref"
            "%s of captured ref %s inside a Pool.%s closure; use per-chunk \
             accumulators combined in chunk order, or an Atomic"
            f v poolfn
        | None -> alias_mutation e target (f ^ " of captured ref"))
      | ( ([ "Array"; ("set" | "unsafe_set") ]
          | [ "Bytes"; ("set" | "unsafe_set") ]
          | [ "Float"; "Array"; ("set" | "unsafe_set") ]),
          arr :: idx :: _ ) -> (
        let chunk_independent =
          SSet.is_empty (SSet.inter (free_local_idents idx) bound)
        in
        match captured bound arr with
        | Some v when chunk_independent ->
          add_diag ctx u e.exp_loc "race/captured-array"
            "write to captured array %s at a chunk-independent index inside \
             a Pool.%s closure; index through a closure-bound variable (the \
             chunk range) or keep the buffer closure-local"
            v poolfn
        | Some _ -> ()
        | None ->
          if chunk_independent then
            alias_mutation e arr "write to captured array")
      | comps, target :: _ when List.mem comps mutating_calls -> (
        match captured bound target with
        | Some v ->
          add_diag ctx u e.exp_loc "race/captured-call"
            "%s mutates captured %s inside a Pool.%s closure; collect \
             per-chunk results and merge them after the parallel region"
            (String.concat "." comps) v poolfn
        | None ->
          alias_mutation e target (String.concat "." comps ^ " mutates captured container"))
      | _ -> ())
    | Texp_setfield (lhs, _, label, _) -> (
      match captured bound lhs with
      | Some v ->
        add_diag ctx u e.exp_loc "race/captured-field"
          "write to mutable field %s of captured %s inside a Pool.%s \
           closure; fold per-chunk results instead"
          label.lbl_name v poolfn
      | None ->
        alias_mutation e lhs
          (Printf.sprintf "write to mutable field %s of captured value"
             label.lbl_name))
    | _ -> ());
    Tast_iterator.default_iterator.expr it e
  in
  let it = { Tast_iterator.default_iterator with expr } in
  it.expr it clo

let rec list_literal_elems (e : expression) =
  match e.exp_desc with
  | Texp_construct (_, cd, [ hd; tl ]) when cd.cstr_name = "::" ->
    hd :: list_literal_elems tl
  | _ -> []

let race_pass ctx d =
  let u = d.owner in
  let expr it (e : expression) =
    (match e.exp_desc with
    | Texp_apply (fn, args) -> (
      match last2 (ident_comps fn) with
      | Some ("Pool", poolfn) when SSet.mem poolfn pool_fns ->
        List.iter
          (fun ((label : Asttypes.arg_label), arg) ->
            match (label, arg) with
            | (Asttypes.Nolabel | Asttypes.Labelled "f"), Some a -> (
              match a.exp_desc with
              | Texp_function _ -> check_pool_closure ctx u poolfn a
              | _ ->
                (* Pool.run takes a literal list of thunks. *)
                List.iter
                  (fun elem ->
                    match elem.exp_desc with
                    | Texp_function _ -> check_pool_closure ctx u poolfn elem
                    | _ -> ())
                  (list_literal_elems a))
            | Asttypes.Labelled "map", Some a -> (
              match a.exp_desc with
              | Texp_function _ -> check_pool_closure ctx u poolfn a
              | _ -> ())
            | _ -> ())
          args
      | _ -> ())
    | _ -> ());
    Tast_iterator.default_iterator.expr it e
  in
  let it = { Tast_iterator.default_iterator with expr } in
  it.expr it d.body

(* ---------- pass 3: hot-path allocation check ---------- *)

(* The steady-state path is a loop body inside a function of a
   hot-marked module (module-level initialization loops run once and
   are exempt).  An alloc-ok hatch comment on the same or the preceding
   line suppresses one site; a hatch that suppresses nothing is itself
   a finding, so hatches cannot rot.  (The marker spellings are spelled
   out in [Lint.hot_marker]/[alloc_ok_marker], never in comments — this file
   is scanned too.) *)

let add_alloc ctx (u : unit_info) (loc : Location.t) rule fmt =
  let line = loc.Location.loc_start.Lexing.pos_lnum in
  let hatch =
    match Hashtbl.find_opt u.alloc_ok line with
    | Some used -> Some used
    | None -> Hashtbl.find_opt u.alloc_ok (line - 1)
  in
  match hatch with
  | Some used ->
    Printf.ksprintf
      (fun _ ->
        used := true;
        ctx.hatches_used <- ctx.hatches_used + 1)
      fmt
  | None -> add_diag ctx u loc rule fmt

let returns_float (e : expression) =
  match Types.get_desc e.exp_type with
  | Types.Tconstr (p, [], _) -> Path.name p = "float"
  | _ -> false

let is_partial_apply (e : expression) =
  match Types.get_desc e.exp_type with Types.Tarrow _ -> true | _ -> false

(* Heads whose calls never allocate a float box on return: compiler
   primitives ([Float.*], [Array.get] on a float array) compile to
   unboxed loads, and sub-inline-threshold accessors in the repo's own
   [Vec]/[Mat] kernels are inlined cross-module from the .cmx. *)
let boxed_float_exempt_heads = SSet.of_list [ "Float"; "Array"; "Bigarray"; "Atomic" ]

let alloc_pass ctx d =
  let u = d.owner in
  let rec walk ~in_loop ~in_fun (e : expression) =
    let flagging = in_loop && in_fun in
    let children ~in_loop ~in_fun e =
      let expr _ e' = walk ~in_loop ~in_fun e' in
      let it = { Tast_iterator.default_iterator with expr } in
      Tast_iterator.default_iterator.expr it e
    in
    match e.exp_desc with
    | Texp_for (_, _, lo, hi, _, body) ->
      walk ~in_loop ~in_fun lo;
      walk ~in_loop ~in_fun hi;
      walk ~in_loop:true ~in_fun body
    | Texp_while (cond, body) ->
      walk ~in_loop:true ~in_fun cond;
      walk ~in_loop:true ~in_fun body
    | Texp_function _ ->
      if flagging then
        add_alloc ctx u e.exp_loc "alloc/closure"
          "closure allocated on every iteration of a hot loop; hoist it out \
           of the loop";
      (* A closure body is a fresh steady-state context: its own loops
         count, the enclosing loop does not. *)
      children ~in_loop:false ~in_fun:true e
    | Texp_tuple _ ->
      if flagging then
        add_alloc ctx u e.exp_loc "alloc/literal"
          "tuple allocated on every iteration of a hot loop; use scratch \
           buffers or split the values";
      children ~in_loop ~in_fun e
    | Texp_record _ ->
      if flagging then
        add_alloc ctx u e.exp_loc "alloc/literal"
          "record allocated on every iteration of a hot loop; mutate a \
           scratch record or split the fields";
      children ~in_loop ~in_fun e
    | Texp_array _ ->
      if flagging then
        add_alloc ctx u e.exp_loc "alloc/literal"
          "array literal allocated on every iteration of a hot loop; hoist a \
           scratch buffer";
      children ~in_loop ~in_fun e
    | Texp_construct (_, cd, (_ :: _ as _args)) ->
      if flagging then
        add_alloc ctx u e.exp_loc "alloc/literal"
          "constructor %s allocated on every iteration of a hot loop%s"
          cd.cstr_name
          (if List.exists returns_float (match e.exp_desc with
              | Texp_construct (_, _, args) -> args
              | _ -> [])
           then " (and it boxes its float argument)"
           else "");
      children ~in_loop ~in_fun e
    | Texp_apply (fn, _) ->
      (if flagging then
         let comps = ident_comps fn in
         match comps with
         | [ "ref" ] ->
           add_alloc ctx u e.exp_loc "alloc/ref"
             "ref cell allocated on every iteration of a hot loop; hoist it \
              or use a mutable local"
         | _ ->
           if is_partial_apply e then
             add_alloc ctx u e.exp_loc "alloc/partial-apply"
               "partial application%s builds a closure on every iteration of \
                a hot loop; apply all arguments or hoist the partial \
                application"
               (match comps with
               | [] -> ""
               | c -> Printf.sprintf " of %s" (String.concat "." c))
           else if
             returns_float e
             && List.length comps >= 2
             && not (SSet.mem (List.hd comps) boxed_float_exempt_heads)
           then
             add_alloc ctx u e.exp_loc "alloc/boxed-float"
               "call to %s returns a boxed float on every iteration of a hot \
                loop; use an *_into scratch variant or justify with an \
                alloc-ok hatch comment"
               (String.concat "." comps));
      children ~in_loop ~in_fun e
    | _ -> children ~in_loop ~in_fun e
  in
  walk ~in_loop:false ~in_fun:false d.body

let unused_hatches ctx (u : unit_info) =
  Hashtbl.fold (fun line used acc -> if !used then acc else line :: acc) u.alloc_ok []
  |> List.sort compare
  |> List.iter (fun line ->
         ctx.diags <-
           {
             Lint.file = u.source;
             line;
             col = 0;
             rule = "alloc/unused-hatch";
             message =
               "this alloc-ok hatch suppresses nothing; remove it (stale \
                hatches hide future regressions)";
           }
           :: ctx.diags)

(* ---------- orchestration ---------- *)

let compare_diag (a : Lint.diag) (b : Lint.diag) =
  match String.compare a.file b.file with
  | 0 -> (
    match compare a.line b.line with
    | 0 -> (
      match compare a.col b.col with
      | 0 -> (
        match String.compare a.rule b.rule with
        | 0 -> String.compare a.message b.message
        | c -> c)
      | c -> c)
    | c -> c)
  | c -> c

let scan_units units =
  let units =
    List.sort (fun a b -> String.compare a.canon b.canon) units
  in
  let per_unit = List.map defs_of_unit units in
  let all_defs = List.concat_map fst per_unit in
  let index = build_index all_defs in
  let summaries =
    List.fold_left2
      (fun acc (defs, idtbl) _u ->
        List.fold_left
          (fun acc d ->
            let s = summarize ~index ~idtbl d in
            SMap.update d.key
              (function
                | None -> Some s | Some prev -> Some (merge_summary prev s))
              acc)
          acc defs)
      SMap.empty per_unit units
  in
  let taint = fixpoint summaries in
  let ctx = { diags = []; hatches_used = 0 } in
  det_pass ctx all_defs summaries taint;
  List.iter (fun d -> race_pass ctx d) all_defs;
  List.iter (fun d -> if d.owner.hot then alloc_pass ctx d) all_defs;
  List.iter (fun u -> unused_hatches ctx u) units;
  let diags = List.sort_uniq compare_diag ctx.diags in
  ( diags,
    {
      units_scanned = List.length units;
      defs_analyzed = List.length all_defs;
      hatches_used = ctx.hatches_used;
    } )

(* ---------- exported call-graph surface ----------

   Proto (rodproto) resolves `gated-by` hatches against the same
   suffix-indexed definition table the taint pass uses; exposing the
   enumeration + index here keeps the two analyzers' notion of "which
   function does this dotted name denote" identical. *)

let defs_of_units units = List.concat_map (fun u -> fst (defs_of_unit u)) units

type dindex = {
  by_suffix : string list SMap.t;
  by_key : (string, def list) Hashtbl.t;
}

let index_defs defs =
  let by_key = Hashtbl.create 64 in
  List.iter
    (fun d ->
      let prev = Option.value (Hashtbl.find_opt by_key d.key) ~default:[] in
      Hashtbl.replace by_key d.key (prev @ [ d ]))
    defs;
  { by_suffix = build_index defs; by_key }

let resolve_defs idx name =
  resolve idx.by_suffix (canon_components name)
  |> List.concat_map (fun key ->
         Option.value (Hashtbl.find_opt idx.by_key key) ~default:[])
