(* The linter walks compiler-libs parsetrees (no typing pass: every
   rule is syntactic, which keeps a full-repo run well under a second).
   See lint.mli for the rule catalogue. *)

open Parsetree
module SSet = Set.Make (String)

type diag = {
  file : string;
  line : int;
  col : int;
  rule : string;
  message : string;
}

let hot_marker = "rodlint: hot"
let obs_marker = "rodlint: obs"

type ctx = {
  file : string;
  hot : bool;
  obs : bool;
  mutable diags : diag list;
  mutable loop_depth : int;
}

let add ctx (loc : Location.t) rule fmt =
  let p = loc.loc_start in
  Printf.ksprintf
    (fun message ->
      ctx.diags <-
        {
          file = ctx.file;
          line = p.Lexing.pos_lnum;
          col = p.Lexing.pos_cnum - p.Lexing.pos_bol;
          rule;
          message;
        }
        :: ctx.diags)
    fmt

let rec flatten_lid = function
  | Longident.Lident s -> [ s ]
  | Longident.Ldot (l, s) -> flatten_lid l @ [ s ]
  | Longident.Lapply _ -> []

(* --- determinism rules (and the hot/obs per-identifier rules), fired
   on every identifier use --- *)

(* Console side-channels flagged in obs-instrumented modules.  String
   renderers ([sprintf], [ksprintf], [Format.asprintf], buffer/channel
   [fprintf]) are deliberately absent: only writes to the process's
   stdout/stderr bypass the registry. *)
let console_printers =
  SSet.of_list
    [ "print_string"; "print_endline"; "print_newline"; "print_int";
      "print_float"; "print_char"; "print_bytes"; "prerr_string";
      "prerr_endline"; "prerr_newline"; "prerr_int"; "prerr_float";
      "prerr_char"; "prerr_bytes" ]

let check_ident ctx loc lid =
  match flatten_lid lid with
  | [ ("Printf" | "Format"); (("printf" | "eprintf") as f) ] when ctx.obs ->
    add ctx loc "obs/print-telemetry"
      "%s.%s writes to a console stream from an obs-instrumented module; \
       record telemetry through the Obs registry (counters, gauges, spans) \
       and let an exporter render it"
      (List.hd (flatten_lid lid))
      f
  | ([ f ] | [ "Stdlib"; f ]) when ctx.obs && SSet.mem f console_printers ->
    add ctx loc "obs/print-telemetry"
      "%s writes to a console stream from an obs-instrumented module; \
       record telemetry through the Obs registry (counters, gauges, spans) \
       and let an exporter render it"
      f
  | [ "Random"; "self_init" ] ->
    add ctx loc "determinism/self-init"
      "Random.self_init seeds from the environment; derive a seed and use \
       Random.State.make instead"
  | [ "Random"; f ] ->
    add ctx loc "determinism/global-random"
      "Random.%s uses the global generator state; thread an explicit seeded \
       Random.State.t"
      f
  | [ "Unix"; ("gettimeofday" | "time") ] | [ "Sys"; "time" ] ->
    add ctx loc "determinism/wallclock"
      "wall-clock read (%s): results would depend on when the code runs"
      (String.concat "." (flatten_lid lid))
  | ([ "compare" ] | [ "Stdlib"; "compare" ]) when ctx.hot ->
    add ctx loc "hot/poly-compare"
      "polymorphic compare in a hot module; use Float.compare / Int.compare \
       or an explicit comparator"
  | _ -> ()

(* --- parallel-safety: closures handed to the domain pool --- *)

let pool_functions = [ "parallel_for"; "map_reduce"; "map_chunks"; "map_chunks_i" ]

let pat_vars pat =
  let acc = ref [] in
  let it =
    {
      Ast_iterator.default_iterator with
      pat =
        (fun it p ->
          (match p.Parsetree.ppat_desc with
          | Parsetree.Ppat_var { txt; _ } -> acc := txt :: !acc
          | Parsetree.Ppat_alias (_, { txt; _ }) -> acc := txt :: !acc
          | _ -> ());
          Ast_iterator.default_iterator.pat it p);
    }
  in
  it.pat it pat;
  !acc

let expr_idents e =
  let acc = ref SSet.empty in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          (match e.Parsetree.pexp_desc with
          | Parsetree.Pexp_ident { txt = Longident.Lident v; _ } ->
            acc := SSet.add v !acc
          | _ -> ());
          Ast_iterator.default_iterator.expr it e);
    }
  in
  it.expr it e;
  !acc

let ident_path (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> flatten_lid txt
  | _ -> []

let first_nolabel args =
  List.find_map
    (function Asttypes.Nolabel, a -> Some a | _ -> None)
    args

(* In a pool closure, mutation of captured state is safe only through
   the chunk-index idiom: a captured array written at an index that
   involves a closure-bound variable (the [for s = lo to hi - 1] loop
   variable) touches a range no other chunk touches. *)
let check_pool_mutation ctx bound (e : Parsetree.expression) fn args =
  match ident_path fn with
  | [ ":=" ] | [ "Stdlib"; ":=" ] -> (
    match first_nolabel args with
    | Some { pexp_desc = Pexp_ident { txt = Longident.Lident v; _ }; _ }
      when not (SSet.mem v bound) ->
      add ctx e.pexp_loc "parallel/captured-mutation"
        "assignment to captured ref %s inside a pool closure; use per-chunk \
         accumulators combined by map_reduce, or an Atomic"
        v
    | _ -> ())
  | [ ("incr" | "decr") ] | [ "Stdlib"; ("incr" | "decr") ] -> (
    match first_nolabel args with
    | Some { pexp_desc = Pexp_ident { txt = Longident.Lident v; _ }; _ }
      when not (SSet.mem v bound) ->
      add ctx e.pexp_loc "parallel/captured-mutation"
        "incr/decr of captured ref %s inside a pool closure; use per-chunk \
         accumulators combined by map_reduce, or an Atomic"
        v
    | _ -> ())
  | [ "Array"; ("set" | "unsafe_set") ] -> (
    match args with
    | [ (_, arr); (_, idx); _ ] -> (
      match arr.pexp_desc with
      | Pexp_ident { txt = Longident.Lident v; _ }
        when (not (SSet.mem v bound))
             && SSet.is_empty (SSet.inter (expr_idents idx) bound) ->
        add ctx e.pexp_loc "parallel/captured-mutation"
          "write to captured array %s at a chunk-independent index inside a \
           pool closure; index through the chunk range or keep the buffer \
           local"
          v
      | _ -> ())
    | _ -> ())
  | _ -> ()

let rec walk_closure ctx bound (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_fun (_, default, pat, body) ->
    Option.iter (walk_closure ctx bound) default;
    walk_closure ctx (SSet.union bound (SSet.of_list (pat_vars pat))) body
  | Pexp_function cases -> List.iter (walk_case ctx bound) cases
  | Pexp_let (rec_flag, vbs, body) ->
    let names =
      List.concat_map (fun vb -> pat_vars vb.Parsetree.pvb_pat) vbs
    in
    let inner = SSet.union bound (SSet.of_list names) in
    let rhs_bound =
      match rec_flag with Asttypes.Recursive -> inner | Nonrecursive -> bound
    in
    List.iter (fun vb -> walk_closure ctx rhs_bound vb.Parsetree.pvb_expr) vbs;
    walk_closure ctx inner body
  | Pexp_for (pat, lo, hi, _, body) ->
    walk_closure ctx bound lo;
    walk_closure ctx bound hi;
    walk_closure ctx (SSet.union bound (SSet.of_list (pat_vars pat))) body
  | Pexp_match (scrutinee, cases) | Pexp_try (scrutinee, cases) ->
    walk_closure ctx bound scrutinee;
    List.iter (walk_case ctx bound) cases
  | Pexp_setfield (lhs, _, rhs) ->
    (match lhs.pexp_desc with
    | Pexp_ident { txt = Longident.Lident v; _ } when not (SSet.mem v bound) ->
      add ctx e.pexp_loc "parallel/captured-mutation"
        "mutable-field write on captured %s inside a pool closure; fold \
         per-chunk results instead"
        v
    | _ -> ());
    walk_closure ctx bound lhs;
    walk_closure ctx bound rhs
  | Pexp_apply (fn, args) ->
    check_pool_mutation ctx bound e fn args;
    walk_closure ctx bound fn;
    List.iter (fun (_, a) -> walk_closure ctx bound a) args
  | _ ->
    let it =
      {
        Ast_iterator.default_iterator with
        expr = (fun _ e' -> walk_closure ctx bound e');
      }
    in
    Ast_iterator.default_iterator.expr it e

and walk_case ctx bound (c : Parsetree.case) =
  let bound = SSet.union bound (SSet.of_list (pat_vars c.pc_lhs)) in
  Option.iter (walk_closure ctx bound) c.pc_guard;
  walk_closure ctx bound c.pc_rhs

(* --- hot-path hygiene helpers --- *)

let float_functions =
  SSet.of_list
    [ "sqrt"; "exp"; "log"; "log10"; "float_of_int"; "abs_float"; "cos"; "sin";
      "tan"; "atan"; "atan2"; "ceil"; "floor"; "mod_float" ]

let is_float_operator name =
  String.length name > 1
  && name.[String.length name - 1] = '.'
  && String.contains "+-*/*" name.[0]

let looks_float (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_constant (Pconst_float _) -> true
  | Pexp_ident { txt; _ } -> (
    match flatten_lid txt with
    | [ ("infinity" | "neg_infinity" | "nan" | "epsilon_float" | "max_float"
        | "min_float") ] ->
      true
    | "Float" :: _ :: _ -> true
    | _ -> false)
  | Pexp_apply (fn, _) -> (
    match ident_path fn with
    | [ op ] when is_float_operator op -> true
    | [ f ] when SSet.mem f float_functions -> true
    | "Float" :: _ :: _ -> true
    | _ -> false)
  | Pexp_constraint
      (_, { ptyp_desc = Ptyp_constr ({ txt = Longident.Lident "float"; _ }, []); _ })
    ->
    true
  | _ -> false

(* --- the main per-file iterator --- *)

let main_iterator ctx =
  let expr it (e : Parsetree.expression) =
    (match e.pexp_desc with
    | Pexp_ident { txt; _ } -> check_ident ctx e.pexp_loc txt
    | _ -> ());
    match e.pexp_desc with
    | Pexp_apply (fn, args) ->
      (match List.rev (ident_path fn) with
      | name :: _ when List.mem name pool_functions ->
        List.iter
          (fun ((label : Asttypes.arg_label), arg) ->
            let is_closure =
              match arg.Parsetree.pexp_desc with
              | Pexp_fun _ | Pexp_function _ -> true
              | _ -> false
            in
            let relevant =
              match label with
              | Nolabel | Labelled "map" -> true
              | Labelled _ | Optional _ -> false
            in
            if relevant && is_closure then walk_closure ctx SSet.empty arg)
          args
      | _ -> ());
      (if ctx.hot then
         match (ident_path fn, args) with
         | [ (("=" | "<>") as op) ], [ (_, a); (_, b) ]
           when looks_float a || looks_float b ->
           add ctx e.pexp_loc "hot/float-eq"
             "polymorphic %s on floats in a hot module; use Float.compare \
              (or an epsilon) — float equality also mishandles nan"
             op
         | _ -> ());
      Ast_iterator.default_iterator.expr it e
    | Pexp_for (_, _, _, _, _) | Pexp_while (_, _) ->
      ctx.loop_depth <- ctx.loop_depth + 1;
      Ast_iterator.default_iterator.expr it e;
      ctx.loop_depth <- ctx.loop_depth - 1
    | Pexp_fun _ | Pexp_function _ when ctx.hot && ctx.loop_depth > 0 ->
      add ctx e.pexp_loc "hot/closure-in-loop"
        "function literal inside a loop body in a hot module allocates one \
         closure per iteration; hoist it out of the loop";
      let saved = ctx.loop_depth in
      ctx.loop_depth <- 0;
      Ast_iterator.default_iterator.expr it e;
      ctx.loop_depth <- saved
    | _ -> Ast_iterator.default_iterator.expr it e
  in
  { Ast_iterator.default_iterator with expr }

let contains_substring haystack needle =
  let hl = String.length haystack and nl = String.length needle in
  let rec scan i =
    i + nl <= hl && (String.sub haystack i nl = needle || scan (i + 1))
  in
  scan 0

let lint_string ?hot ?obs ~filename source =
  let hot =
    match hot with Some h -> h | None -> contains_substring source hot_marker
  in
  let obs =
    match obs with Some o -> o | None -> contains_substring source obs_marker
  in
  let lexbuf = Lexing.from_string source in
  Lexing.set_filename lexbuf filename;
  match Parse.implementation lexbuf with
  | structure ->
    let ctx = { file = filename; hot; obs; diags = []; loop_depth = 0 } in
    let it = main_iterator ctx in
    it.structure it structure;
    List.rev ctx.diags
  | exception exn -> (
    let fallback message =
      [ { file = filename; line = 1; col = 0; rule = "parse/error"; message } ]
    in
    match Location.error_of_exn exn with
    | Some (`Ok report) ->
      let loc = report.Location.main.loc in
      [
        {
          file = filename;
          line = loc.loc_start.Lexing.pos_lnum;
          col = loc.loc_start.Lexing.pos_cnum - loc.loc_start.Lexing.pos_bol;
          rule = "parse/error";
          message = Format.asprintf "%t" report.Location.main.txt;
        };
      ]
    | Some `Already_displayed | None -> fallback (Printexc.to_string exn))

let lint_file ?hot ?obs path =
  let ic = open_in_bin path in
  let source =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  lint_string ?hot ?obs ~filename:path source

let render (d : diag) =
  Printf.sprintf "%s:%d:%d: [%s] %s" d.file d.line d.col d.rule d.message
