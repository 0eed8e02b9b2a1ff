(** [rodlint]: a source linter over this repository's OCaml code, built
    on compiler-libs' parser and AST iterator.  Three rule families:

    {b Determinism} (every file):
    - [determinism/self-init] — [Random.self_init] seeds the global rng
      from the environment; placements and tests must be reproducible.
    - [determinism/global-random] — any [Random.<f>] call that touches
      the global generator state ([Random.State.*] with an explicit,
      seeded state is the sanctioned idiom).
    - [determinism/wallclock] — [Unix.gettimeofday], [Unix.time] and
      [Sys.time] make results depend on the clock.  The profiler is the
      one legitimate user and is allowlisted.

    {b Hot-path hygiene} (only in files carrying a [rodlint: hot]
    marker comment):
    - [hot/poly-compare] — the polymorphic [compare] (use
      [Float.compare] / [Int.compare]; the polymorphic version boxes
      and walks tags).
    - [hot/float-eq] — [=] / [<>] where an operand is syntactically a
      float (float equality is almost always an epsilon bug, and
      polymorphic equality boxes).

    {b Telemetry discipline} (only in files carrying a [rodlint: obs]
    marker comment):
    - [obs/print-telemetry] — [Printf.printf] / [Printf.eprintf],
      [Format.printf] / [Format.eprintf], and the bare console printers
      ([print_endline], [prerr_string], ...) side-channel telemetry to
      stdout/stderr where no exporter, test, or trace viewer can see
      it.  Instrumented modules must record through the [Obs] registry;
      string renderers ([sprintf], [ksprintf], [asprintf], fprintf to a
      buffer or channel) stay legal.

    Closures handed to the domain pool and closures allocated in hot
    loops are {!Scan}'s job ([race/*], [alloc/closure]): it sees them
    on the typed tree, through aliases and helper calls.  Markers are
    read by {!Marker}, so only a marker inside a comment counts.

    Diagnostics carry [file:line:col] positions.  An allowlist file
    suppresses known-good findings; every entry needs a justification
    comment and unused entries are reported so the list cannot rot. *)

type diag = {
  file : string;
  line : int;  (** 1-based. *)
  col : int;  (** 0-based, matching compiler convention. *)
  rule : string;  (** e.g. ["determinism/wallclock"]. *)
  message : string;
}

val hot_marker : string
(** The magic comment substring ["rodlint: hot"]. *)

val obs_marker : string
(** The magic comment substring ["rodlint: obs"]. *)

val rules : (string * string) list
(** [(rule id, short description)] catalogue, [parse/error] included. *)

val sarif_rules : Sarif.rule list
(** [rules] lifted to SARIF rule metadata. *)

val lint_string : filename:string -> string -> diag list
(** Lint one compilation unit given as text.  A file that does not
    parse yields a single [parse/error] diagnostic. *)

val lint_file : string -> diag list

val render : diag -> string
(** [file:line:col: [rule] message] — the compiler-style format. *)
