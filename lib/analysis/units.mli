(** [rodunits]: dimensional analysis of the load-model arithmetic, the
    fourth typedtree-level analyzer (after {!Lint}, {!Scan} and
    {!Proto}).  The whole ROD reproduction is float arithmetic over
    physically distinct quantities — load coefficients (cpu-sec per
    tuple), stream rates (tuples per simulated second), node
    capacities, dimensionless utilizations / volume ratios / margins,
    simulated seconds, state-size bytes — and nothing in the type
    system stops a margin from being added to a latency.  This pass
    checks exactly that.

    {b Dimensions} form a free abelian group over five base units:
    [tuple], [cpu-sec], [sim-sec], [byte], [node-cap]; see {!Dim}.
    Three aliases name the recurring composites: [rate] (tuple per
    sim-sec), [load-coeff] (cpu-sec per tuple) and [ratio] / [1] (the
    identity — utilizations, margins, shares, scale factors).

    {b Seeding}: dimension facts are declared in {e interfaces} with a
    marker comment — the tool's name, a colon, then a spec — trailing
    on the first or last line of the [val] or record-field declaration
    it annotates, or standalone on the line directly after (the shape
    long signatures force).
    The spec grammar (the marker prefix is omitted here so this
    interface never matches its own analyzer):

    {v
      spec  ::= (label ":" dim " -> ")* (dim | "_")
      dim   ::= factor (("*" | "/") factor)*
      factor::= name ("^" int)?
      name  ::= tuple | cpu-sec | sim-sec | byte | node-cap
              | rate | load-coeff | ratio | 1
    v}

    The final [dim] gives the fully-applied result's dimension ([_]
    when the result carries none); each [label:dim] binds a labelled
    parameter.  Record-field markers are a bare [dim].  In [.ml] files
    only the escape hatch is legal: the marker followed by [ok <why>]
    on (or directly above) the offending line suppresses one site.

    {b Propagation} is interprocedural through {!Scan}'s def-index:
    mul/div compose dimensions, add/sub/min/max/comparisons require
    equal dimensions, literals are polymorphic, and module-level
    constants get their dimensions inferred from their bodies.
    Everything unknown stays silent — like {!Proto}'s Top state, the
    analysis only asserts where both sides are concrete.

    {b Rules}: [units/mixed-add], [units/mixed-compare],
    [units/dim-mismatch-call], [units/unannotated-boundary] (an
    exported float in an annotated interface with no marker),
    [units/bad-marker], [units/unused-hatch].  Findings reuse
    {!Lint.diag} and the {!Allowlist} machinery, so [rodunits.allow]
    works exactly like its three siblings. *)

val units_marker : string
(** The marker prefix (tool name + colon), read through {!Marker}. *)

val expect_marker : string
(** Declares a fixture's expected rule ids (used by
    [rodcheck --pass units --fixtures]). *)

val expect_of_unit : Scan.unit_info -> string list
(** The rule ids a fixture expects, from its {!expect_marker} comments
    (comma- or space-separated, all occurrences concatenated). *)

val passes : string list
(** Names of the analysis passes, for [--stats]. *)

val rules : (string * string) list
(** [(rule id, short description)] catalogue, for SARIF and docs. *)

val sarif_rules : Sarif.rule list
(** [rules] lifted to SARIF rule metadata (DESIGN.md §15 help URI). *)

(** The dimension algebra: a free abelian group over the five base
    units, represented as integer exponent vectors.  [mul] adds
    exponents, [inv] negates, [one] is the identity (dimensionless).
    Group laws are QCheck-pinned in [test/test_units.ml]. *)
module Dim : sig
  type t

  val one : t
  val base_names : string list
  val base : string -> t option
  (** [base "tuple"], [base "sim-sec"], ... — [None] for unknown names
      (aliases are handled by {!parse}, not here). *)

  val mul : t -> t -> t
  val inv : t -> t
  val div : t -> t -> t
  val pow : t -> int -> t
  val equal : t -> t -> bool
  val to_string : t -> string
  (** Canonical rendering: base factors in declaration order with [^k]
      exponents, ["1"] for the identity. *)

  val parse : string -> (t, string) result
  (** Parse a [dim] expression per the grammar above, including the
      [rate] / [load-coeff] / [ratio] / [1] aliases. *)
end

(** The abstract-value lattice the propagation runs over:
    [Poly ⊑ Unknown ⊑ Dim d ⊑ Conflict], with distinct dimensions
    incomparable.  [Poly] is a polymorphic literal (adapts to any
    dimension: the identity of {!mul}, absorbed by anything under
    {!join}); [Unknown] is an unannotated quantity (silent in checks,
    absorbing under {!mul} — multiplying by an unknown yields an
    unknown); [Conflict] is the absorbing top.  [join] is the
    branch-merge {e and} the add/min/max transfer function: two
    concrete unequal dimensions join to [Conflict], which is precisely
    when mixed-add/mixed-compare fire.  Lattice and monoid laws are
    QCheck-pinned. *)
module Abs : sig
  type t = Poly | Unknown | Dim of Dim.t | Conflict

  val join : t -> t -> t
  val equal : t -> t -> bool
  val leq : t -> t -> bool
  val mul : t -> t -> t
  val inv : t -> t
  val div : t -> t -> t
  val to_string : t -> string
end

type units_stats = {
  ifaces_annotated : int;  (** Interfaces carrying at least one marker. *)
  vals_annotated : int;
  fields_annotated : int;
  defs_walked : int;
  hatches_used : int;
}

val check_units :
  ?read_mli:(string -> string option) ->
  Scan.unit_info list ->
  Lint.diag list * units_stats
(** Run the analysis over the units {e together} (propagation is
    interprocedural across units).  Each unit's interface is read from
    [u.source ^ "i"] via [read_mli] (defaults to the filesystem;
    in-memory tests inject a closure).  Interface-side findings
    (boundary, bad markers) carry the [.mli] path.  Diagnostics are
    sorted by [(file, line, col, rule)] and deduplicated; allowlist
    filtering is the caller's job via {!Allowlist.split}. *)
