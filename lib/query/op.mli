(** Continuous-query operators and their load behaviour.

    An operator consumes one or more input streams and produces exactly
    one output stream (which any number of downstream operators may
    read).  Following the paper's load model (§2.2), an operator is
    characterised by

    - a {e cost} per input: CPU seconds needed per input tuple, and
    - a {e selectivity} per input: output tuples produced per input tuple,

    which make its load and output rate linear in its input rates.  Two
    nonlinear cases are modelled explicitly (§6.2): time-window joins,
    whose load is proportional to the {e product} of the two input rates,
    and operators with non-constant selectivity, whose own load is linear
    but whose output rate is not a fixed multiple of the input rate. *)

type linear = {
  costs : float array;
      (** CPU seconds per tuple, one entry per input arc. *)
  selectivities : float array;
      (** Output tuples per input tuple, one entry per input arc; the
          output rate is the selectivity-weighted sum of input rates. *)
}

type join = {
  window : float; (* rodunits: sim-sec *)
      (** Join window size in seconds. *)
  cost_per_pair : float; (* rodunits: cpu-sec/tuple^2 *)
      (** CPU seconds to evaluate one tuple pair. *)
  sel_per_pair : float; (* rodunits: 1/tuple *)
      (** Output tuples per candidate pair. *)
}

type var_selectivity = {
  cost : float; (* rodunits: load-coeff *)
      (** CPU seconds per input tuple (still linear). *)
  sel_lo : float; (* rodunits: 1 *)
      (** Lower bound of the drifting selectivity. *)
  sel_hi : float; (* rodunits: 1 *)
      (** Upper bound of the drifting selectivity. *)
  sel_now : float; (* rodunits: 1 *)
      (** Operating-point selectivity, used only when a concrete workload
          must be evaluated (e.g. by the simulator); the optimizer never
          relies on it. *)
}

type kind =
  | Linear of linear
  | Join of join  (** Exactly two inputs. *)
  | Var_selectivity of var_selectivity  (** Exactly one input. *)

type t = {
  name : string;
  kind : kind;
  out_xfer_cost : float; (* rodunits: load-coeff *)
      (** CPU seconds per tuple to ship one output tuple across the
          network, if the consumer lives on another node (§6.3).  [0.]
          when communication cost is ignored. *)
}

val arity : t -> int
(** Number of input arcs the operator expects. *)

(** Every constructor raises [Invalid_argument], naming the field, on a
    negative or non-finite cost, selectivity, window or transfer cost. *)

val filter : ?name:string -> ?xfer:float -> cost:float -> sel:float -> unit -> t
(* rodunits: cost:load-coeff -> sel:1 -> _ *)
(** Single-input, selectivity in [0,1]. *)

val map : ?name:string -> ?xfer:float -> cost:float -> unit -> t
(* rodunits: cost:load-coeff -> _ *)
(** Single-input, selectivity 1. *)

val union : ?name:string -> ?xfer:float -> cost:float -> n_inputs:int -> unit -> t
(* rodunits: cost:load-coeff -> _ *)
(** [n_inputs]-ary merge; every input passes through (selectivity 1). *)

val aggregate :
  ?name:string -> ?xfer:float -> cost:float -> sel:float -> unit -> t
(* rodunits: cost:load-coeff -> sel:1 -> _ *)
(** Windowed aggregate: one output tuple per [1/sel] input tuples. *)

val delay : ?name:string -> ?xfer:float -> cost:float -> sel:float -> unit -> t
(* rodunits: cost:load-coeff -> sel:1 -> _ *)
(** The paper's tunable delay operator (§7.1): arbitrary per-tuple cost
    and selectivity. *)

val join :
  ?name:string ->
  ?xfer:float ->
  window:float ->
  cost_per_pair:float ->
  sel:float ->
  unit ->
  t
(* rodunits: window:sim-sec -> cost_per_pair:cpu-sec/tuple^2 -> sel:1/tuple -> _ *)
(** Two-input time-window join (nonlinear load). *)

val var_sel :
  ?name:string ->
  ?xfer:float ->
  cost:float ->
  sel_lo:float ->
  sel_hi:float ->
  ?sel_now:float ->
  unit ->
  t
(* rodunits: cost:load-coeff -> sel_lo:1 -> sel_hi:1 -> _ *)
(** Single-input operator whose selectivity drifts in [[sel_lo],[sel_hi]];
    [sel_now] defaults to the midpoint. *)

val linear_exn : t -> linear
(** The linear spec; raises [Invalid_argument] on nonlinear operators. *)

val is_nonlinear : t -> bool

val pp : Format.formatter -> t -> unit
