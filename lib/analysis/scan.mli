(** [rodscan]: interprocedural static analysis over compiler-libs
    {e typedtrees} — the [.cmt] files dune produces — proving
    properties the parse-tree linter ({!Lint}) cannot see; pool races
    and hot-loop closures are checked here only.  Every identifier in a typedtree carries its fully
    resolved [Path.t], so a [Random.float] three calls deep, or a plain
    [ref] captured by a [Parallel.Pool.parallel_for] closure behind a
    module alias, is visible regardless of spelling.

    Three passes share one call-graph/summary infrastructure:

    {b Determinism taint} ([det/taint]): taint is seeded at
    nondeterministic sources (global [Random.*] state,
    [Random.State.make_self_init], [Unix.gettimeofday]/[Unix.time],
    [Sys.time], [Domain.self], and [Hashtbl.iter]/[fold]/[to_seq] whose
    traversal order is unspecified), joined through per-function
    summaries over the whole call graph, and reported wherever it
    reaches a function of a module carrying a
    [(* rodlint: deterministic *)] marker.  The message names the
    shortest laundering chain and the seeding site.

    {b Parallel race lint} ([race/captured-ref], [race/captured-array],
    [race/captured-field], [race/captured-call]): every closure handed
    to [Parallel.Pool.{parallel_for,map_reduce,map_chunks,run]} is
    checked for mutation of captured state that is neither an
    [Atomic.t] (Atomic operations are never flagged) nor provably
    chunk-local — a write to a captured array is allowed exactly when
    its index involves a closure-bound variable, the disjoint-slice
    idiom of the repo's kernels.  Captured state smuggled through a
    closure-local alias ([let slot = total in slot := ...], including
    record-field projections, transitively) is chased back to its
    captured root and reported as [race/aliased-ref].

    {b Hot-path allocation} ([alloc/closure], [alloc/literal],
    [alloc/ref], [alloc/partial-apply], [alloc/boxed-float]): inside
    loop bodies of functions in [(* rodlint: hot *)] modules —
    the steady-state path; module-level init loops run once and are
    exempt — allocating constructs are rejected: closure creation,
    tuple/record/array/constructor literals, [ref] cells, partial
    applications, and cross-module calls returning boxed floats.
    [(* rodscan: alloc-ok <why> *)] on the same or preceding line is
    the per-site escape hatch; a hatch that suppresses nothing is
    itself reported ([alloc/unused-hatch]) so hatches cannot rot.

    Findings reuse {!Lint.diag} and the {!Allowlist} machinery
    (path-suffix/rule-prefix entries with justifications; stale entries
    fail), so [rodscan.allow] works exactly like [rodlint.allow]. *)

val deterministic_marker : string
(** ["rodlint: deterministic"] — marks a module whose results must be
    replayable; the taint pass guards every function in it. *)

val alloc_ok_marker : string
(** ["rodscan: alloc-ok"] — per-site allocation escape hatch. *)

val expect_marker : string
(** ["rodscan-expect:"] — declares a fixture's expected rule ids (used
    by [rodcheck --pass scan --fixtures]). *)

val passes : string list
(** Names of the analysis passes, for [--stats]. *)

val rules : (string * string) list
(** [(rule id, short description)] catalogue, for SARIF and docs. *)

val sarif_rules : Sarif.rule list
(** [rules] lifted to SARIF rule metadata (DESIGN.md §10 help URI). *)

type unit_info = {
  canon : string;  (** Canonical unit name, e.g. ["Feasible.Volume"]. *)
  source : string;  (** Normalized source path; may not exist on disk. *)
  text : string;  (** Raw source text ([""] when the file is gone). *)
  str : Typedtree.structure;
  hot : bool;
  deterministic : bool;
  alloc_ok : (int, bool ref) Hashtbl.t;
      (** Line -> used? for every [alloc-ok] hatch in the source. *)
  expect : string list;  (** Rule ids from [rodscan-expect:] comments. *)
}

val unit_of_cmt : string -> unit_info option
(** Load one compilation unit from a [.cmt] file.  [None] for
    interfaces, packs, partial implementations, or unreadable files.
    Markers and hatches are read from the source file named inside the
    cmt when it exists (it does under dune's [_build/default]). *)

val unit_of_source : filename:string -> string -> unit_info
(** Parse {e and typecheck} source text against the ambient toolchain's
    stdlib (via [Compmisc]), for tests and single-file experiments.
    @raise Failure when the text does not typecheck. *)

(** The taint lattice: a finite powerset of source names with union as
    join — bottom is "deterministic", anything else carries the set of
    nondeterministic sources that can reach the value.  Join is
    commutative, associative and idempotent (QCheck-verified), which is
    what makes the summary fixpoint order-independent. *)
module Taint : sig
  type t

  val bottom : t
  val source : string -> t
  val of_list : string list -> t
  val join : t -> t -> t
  val equal : t -> t -> bool
  val is_tainted : t -> bool
  val to_list : t -> string list
end

val solve : (string * string list * string list) list -> (string * string list) list
(** Pure taint solver over an explicit graph, for property tests:
    [(node, direct sources, callees)] triples in, [(node, sorted taint
    sources)] out (sorted by node name).  Unknown callees are treated
    as pure; duplicate node entries merge.  The result is independent
    of input order. *)

type scan_stats = {
  units_scanned : int;
  defs_analyzed : int;
  hatches_used : int;
}

val scan_units : unit_info list -> Lint.diag list * scan_stats
(** Run all three passes over the units {e together} (the taint pass is
    interprocedural across units).  Diagnostics are sorted by
    [(file, line, col, rule)] and deduplicated; allowlist filtering is
    the caller's job via {!Allowlist.split}. *)

(** {2 Call-graph surface shared with {!Proto}}

    [rodproto] resolves its [gated-by] hatches against the same
    definition table the taint pass builds, so both analyzers agree on
    what a dotted name denotes. *)

type def = {
  key : string;  (** Dotted definition key, e.g. ["Deploy.finish"]. *)
  def_loc : Location.t;
  body : Typedtree.expression;
  owner : unit_info;
}

val defs_of_units : unit_info list -> def list
(** Enumerate every top-level (and nested-module) binding as a
    call-graph node, in source order per unit. *)

type dindex

val index_defs : def list -> dindex
(** Index definitions by every module-path suffix of >= 2 components
    (so ["Deploy.finish"], ["Dynamic.Controller.create"] and their
    dune-mangled spellings all resolve). *)

val resolve_defs : dindex -> string -> def list
(** All definitions a dotted name may denote ([] when unknown). *)

val canon_components : string -> string list
(** Canonical components of a dotted name: split on [.] and dune's
    [__], drop a leading [Stdlib]. *)

val canon_of_path : Path.t -> string list
(** [canon_components] of [Path.name]. *)

val ident_comps : Typedtree.expression -> string list
(** [canon_of_path] of an identifier expression; [[]] for any other
    expression. *)

val last2 : string list -> (string * string) option
(** The last two components, e.g. [Some ("Pool", "map_reduce")]. *)

val compare_diag : Lint.diag -> Lint.diag -> int
(** The [(file, line, col, rule, message)] diagnostic order used by
    {!scan_units}; exported so sibling analyzers sort identically. *)
