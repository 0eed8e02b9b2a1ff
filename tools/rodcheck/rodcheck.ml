(* rodcheck --pass P[,P...] [--fix] [--stats] [--sarif PATH] ROOT...
   rodcheck --pass P[,P...] --fixtures DIR

   The one driver of the static-analysis suite.  A pass is one analyzer
   of the Analysis library:

     lint   parse-tree rules over the .ml sources      (Analysis.Lint)
     scan   determinism taint, races, hot allocation   (Analysis.Scan)
     proto  migration-protocol typestate, gated writes (Analysis.Proto)
     units  dimensions of the load-model arithmetic    (Analysis.Units)

   The cmt passes (scan, proto, units) read the .cmt files under the
   ROOTs, loaded once and shared.  Under dune that means running inside
   [_build/default], where both the cmts and the source copies (for the
   marker comments) live.  Each pass reads its allowlist from
   rod<pass>.allow in the working directory; a missing file is an empty
   list.

   Every selected pass reports in turn.  The driver exits 1, after all
   of its output, when any pass keeps a finding or has a stale allow
   entry.  --sarif writes one SARIF document with a run per pass, named
   rodlint, rodscan, rodproto and rodunits.  --fix (one pass only)
   prints that pass's pruned allowlist to stdout instead.

   --fixtures checks every compiled unit under DIR: the findings of the
   selected passes, interface findings folded onto the .ml, must equal
   the union of the passes' expect comments. *)

module A = Analysis

let usage =
  "usage: rodcheck --pass P[,P...] [--fix] [--stats] [--sarif PATH] ROOT...\n\
  \       rodcheck --pass P[,P...] --fixtures DIR\n\
   passes: lint, scan, proto, units"

type outcome = {
  diags : A.Lint.diag list;
  scanned : string;  (** ["109 files"], ["123 units"]: the summary line. *)
  stats : kept:int -> suppressed:int -> stale:int -> string;
}

type pass = {
  name : string;
  tool : string;  (** SARIF driver name and allowlist stem. *)
  rules : A.Sarif.rule list;
  run : roots:string list -> A.Scan.unit_info list Lazy.t -> outcome;
  expect : (A.Scan.unit_info -> string list) option;
}

(* Files under [roots] with [suffix], sorted.  Dot-directories hold
   dune's object files: the cmt walk enters them, the source walk not. *)
let files_under ~suffix roots =
  let rec walk acc path =
    if Sys.is_directory path then
      Sys.readdir path |> Array.to_list
      |> List.fold_left
           (fun acc entry ->
             if entry = "_build" || (suffix = ".ml" && entry.[0] = '.') then
               acc
             else walk acc (Filename.concat path entry))
           acc
    else if Filename.check_suffix path suffix then path :: acc
    else acc
  in
  List.fold_left walk [] roots |> List.sort_uniq String.compare

let load_units roots =
  files_under ~suffix:".cmt" roots |> List.filter_map A.Scan.unit_of_cmt

let lint =
  {
    name = "lint";
    tool = "rodlint";
    rules = [];
    run =
      (fun ~roots _ ->
        let files = files_under ~suffix:".ml" roots in
        {
          diags = List.concat_map A.Lint.lint_file files;
          scanned = Printf.sprintf "%d files" (List.length files);
          stats =
            (fun ~kept ~suppressed ~stale ->
              Printf.sprintf
                "rodlint --stats: %d files, %d findings (%d allow-suppressed, \
                 %d stale allow entries)"
                (List.length files) kept suppressed stale);
        });
    expect = None;
  }

let scan =
  {
    name = "scan";
    tool = "rodscan";
    rules = A.Scan.sarif_rules;
    run =
      (fun ~roots:_ units ->
        let diags, s = A.Scan.scan_units (Lazy.force units) in
        {
          diags;
          scanned = Printf.sprintf "%d units" s.units_scanned;
          stats =
            (fun ~kept ~suppressed ~stale ->
              Printf.sprintf
                "rodscan --stats: %d passes (%s), %d rules, %d units, %d \
                 definitions, %d findings (%d allow-suppressed, %d \
                 hatch-suppressed, %d stale allow entries)"
                (List.length A.Scan.passes)
                (String.concat ", " A.Scan.passes)
                (List.length A.Scan.rules) s.units_scanned s.defs_analyzed
                kept suppressed s.hatches_used stale);
        });
    expect = Some (fun u -> u.expect);
  }

let proto =
  {
    name = "proto";
    tool = "rodproto";
    rules = A.Proto.sarif_rules;
    run =
      (fun ~roots:_ units ->
        let diags, s = A.Proto.check_units (Lazy.force units) in
        {
          diags;
          scanned = Printf.sprintf "%d units" s.units_checked;
          stats =
            (fun ~kept ~suppressed ~stale ->
              Printf.sprintf
                "rodproto --stats: %d passes (%s), %d rules, %d units, %d \
                 definitions, %d roles, %d findings (%d allow-suppressed, %d \
                 hatches used, %d stale allow entries)"
                (List.length A.Proto.passes)
                (String.concat ", " A.Proto.passes)
                (List.length A.Proto.rules) s.units_checked s.defs_walked
                s.roles_bound kept suppressed s.hatches_used stale);
        });
    expect = Some A.Proto.expect_of_unit;
  }

let units =
  {
    name = "units";
    tool = "rodunits";
    rules = A.Units.sarif_rules;
    run =
      (fun ~roots:_ units ->
        let units = Lazy.force units in
        let diags, s = A.Units.check_units units in
        let n = List.length units in
        {
          diags;
          scanned = Printf.sprintf "%d units" n;
          stats =
            (fun ~kept ~suppressed ~stale ->
              Printf.sprintf
                "rodunits --stats: %d passes (%s), %d rules, %d units, %d \
                 interfaces annotated (%d vals, %d fields), %d definitions, \
                 %d findings (%d allow-suppressed, %d hatches used, %d stale \
                 allow entries)"
                (List.length A.Units.passes)
                (String.concat ", " A.Units.passes)
                (List.length A.Units.rules) n s.ifaces_annotated
                s.vals_annotated s.fields_annotated s.defs_walked kept
                suppressed s.hatches_used stale);
        });
    expect = Some A.Units.expect_of_unit;
  }

let all_passes = [ lint; scan; proto; units ]

let bad_usage msg =
  prerr_endline ("rodcheck: " ^ msg);
  prerr_endline usage;
  exit 2

let split_allowed =
  A.Allowlist.split
    ~file:(fun (d : A.Lint.diag) -> d.file)
    ~rule:(fun (d : A.Lint.diag) -> d.rule)

let sarif_result (d : A.Lint.diag) =
  {
    A.Sarif.rule_id = d.rule;
    level = "error";
    message = d.message;
    file = Some d.file;
    line = Some d.line;
    col = Some d.col;
  }

(* One pass over the roots: print its kept findings, stale entries,
   optional stats line and summary; return its SARIF run and whether it
   failed. *)
let check ~fix ~stats ~roots units pass =
  let allow_file = pass.tool ^ ".allow" in
  let allowlist = A.Allowlist.load_or_exit ~tool:pass.tool allow_file in
  let o = pass.run ~roots units in
  let kept, suppressed = split_allowed allowlist o.diags in
  let stale = A.Allowlist.unused allowlist in
  if fix then
    A.Allowlist.fix_exit ~allow_file allowlist
      ~rendered_kept:(List.map A.Lint.render kept);
  List.iter (fun d -> print_endline (A.Lint.render d)) kept;
  A.Allowlist.print_stale allowlist;
  let failed = kept <> [] || stale <> [] in
  if stats then
    print_endline
      (o.stats ~kept:(List.length kept)
         ~suppressed:(List.length suppressed)
         ~stale:(List.length stale));
  Printf.printf "%s: %s, %d findings (%d suppressed)%s\n" pass.tool o.scanned
    (List.length kept) (List.length suppressed)
    (if failed then " — FAILED" else "");
  ( { A.Sarif.tool = pass.tool; rules = pass.rules;
      results = List.map sarif_result kept },
    failed )

(* --- fixture self-test ---------------------------------------------

   The whole directory is checked as one unit set, so interprocedural
   fixtures (a Random leak crossing files, a cross-unit gated-by hatch)
   work.  Interface-side findings carry the .mli path and are mapped
   back to the implementing .ml, so a fixture's expectations live in
   one file. *)

let ml_of_diag_file file =
  if Filename.check_suffix file ".mli" then Filename.chop_suffix file "i"
  else file

let run_fixtures passes dir =
  let expects =
    List.map
      (fun p ->
        match p.expect with
        | Some f -> f
        | None -> bad_usage (Printf.sprintf "pass %s has no fixtures" p.name))
      passes
  in
  let units = load_units [ dir ] in
  if units = [] then begin
    Printf.eprintf "rodcheck --fixtures: no .cmt files under %s\n" dir;
    exit 2
  end;
  let diags =
    List.concat_map (fun p -> (p.run ~roots:[ dir ] (Lazy.from_val units)).diags)
      passes
  in
  let module SSet = Set.Make (String) in
  let found = Hashtbl.create 16 in
  List.iter
    (fun (d : A.Lint.diag) ->
      let file = ml_of_diag_file d.file in
      let cur = Option.value (Hashtbl.find_opt found file) ~default:SSet.empty in
      Hashtbl.replace found file (SSet.add d.rule cur))
    diags;
  let failures = ref 0 and checked = ref 0 in
  List.iter
    (fun (u : A.Scan.unit_info) ->
      (* Skip dune's generated wrapper module (no source on disk). *)
      if Sys.file_exists u.source then begin
        incr checked;
        let expected = SSet.of_list (List.concat_map (fun f -> f u) expects) in
        let got =
          Option.value (Hashtbl.find_opt found u.source) ~default:SSet.empty
        in
        if SSet.equal expected got then
          Printf.printf "fixture ok: %s%s\n" u.source
            (if SSet.is_empty expected then " (conforming)"
             else
               Printf.sprintf " (rejected: %s)"
                 (String.concat ", " (SSet.elements expected)))
        else begin
          incr failures;
          Printf.printf "fixture FAIL: %s expected {%s} got {%s}\n" u.source
            (String.concat ", " (SSet.elements expected))
            (String.concat ", " (SSet.elements got));
          List.iter
            (fun (d : A.Lint.diag) ->
              if ml_of_diag_file d.file = u.source then
                Printf.printf "  %s\n" (A.Lint.render d))
            diags
        end
      end)
    (List.sort
       (fun (a : A.Scan.unit_info) b -> String.compare a.source b.source)
       units);
  Printf.printf "%s fixtures: %d checked, %d failed\n"
    (String.concat "+" (List.map (fun p -> p.tool) passes))
    !checked !failures;
  if !failures > 0 || !checked = 0 then exit 1

let parse_passes spec =
  String.split_on_char ',' spec
  |> List.map (fun name ->
         match List.find_opt (fun p -> p.name = name) all_passes with
         | Some p -> p
         | None -> bad_usage (Printf.sprintf "unknown pass %S" name))

let () =
  let passes = ref [] in
  let fix = ref false and stats = ref false in
  let sarif = ref None and fixtures = ref None in
  let roots = ref [] in
  let rec parse = function
    | [] -> ()
    | "--pass" :: spec :: rest ->
      passes := !passes @ parse_passes spec;
      parse rest
    | "--fix" :: rest ->
      fix := true;
      parse rest
    | "--stats" :: rest ->
      stats := true;
      parse rest
    | "--sarif" :: path :: rest ->
      sarif := Some path;
      parse rest
    | "--fixtures" :: dir :: rest ->
      fixtures := Some dir;
      parse rest
    | ("--help" | "-help") :: _ ->
      print_endline usage;
      exit 0
    | ("--pass" | "--sarif" | "--fixtures") :: [] ->
      bad_usage "option needs an argument"
    | root :: rest ->
      roots := root :: !roots;
      parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !passes = [] then bad_usage "no --pass given";
  match !fixtures with
  | Some dir -> run_fixtures !passes dir
  | None ->
    if !roots = [] then bad_usage "no ROOT given";
    if !fix && List.length !passes <> 1 then
      bad_usage "--fix takes exactly one pass";
    let roots = List.rev !roots in
    let units = lazy (load_units roots) in
    let results =
      List.map (check ~fix:!fix ~stats:!stats ~roots units) !passes
    in
    Option.iter
      (fun path -> A.Sarif.write ~path (List.map fst results))
      !sarif;
    if List.exists snd results then exit 1
