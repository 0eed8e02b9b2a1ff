(** A Resilient-Operator-Distribution problem instance (§2.4): an
    operator load-coefficient matrix [L^o] ([m] operators by [d] rate
    variables) and a node capacity vector [C] ([n] nodes).

    The goal is an assignment of operators to nodes maximizing the
    feasible-set volume [vol { R >= 0 : A L^o R <= C }]. *)

type t = private {
  lo : Linalg.Mat.t;  (** [m x d]; finite, nonnegative, no all-zero column. *)
  caps : Linalg.Vec.t;  (** [n]; finite, strictly positive. *)
  load_table : (int * float array array) option Atomic.t;
      (** The QMC load table of {!sample_loads}, with its sample count. *)
}
(** Treat [lo] and [caps] as immutable: the cached load table is derived
    from them. *)

val create : lo:Linalg.Mat.t -> caps:Linalg.Vec.t -> t
(** Validates shapes and signs (every variable must carry load somewhere,
    or the feasible set would be unbounded along that axis).  A NaN or
    infinite coefficient or capacity raises [Invalid_argument] naming
    its operator row and variable column, or its node.
    The matrices are copied. *)

val sample_loads :
  t -> samples:int -> (unit -> float array array) -> float array array
(** [sample_loads t ~samples build] is the problem's per-operator load
    table on a [samples]-point QMC sample ({!Local_search.make_scorer}
    supplies [build]).  The table is built on the first call for a
    sample count and returned, shared and read-only, by every later
    call with the same count; a different count replaces it.  It lives
    exactly as long as [t] and is freed with it.  Concurrent first
    calls from several domains may each build the table; they build
    the same one, so the race is benign. *)

val of_model : Query.Load_model.t -> caps:Linalg.Vec.t -> t
(** Instance over a (linearized) query-graph load model. *)

val of_graph : Query.Graph.t -> caps:Linalg.Vec.t -> t
(** Convenience: derive the load model, then build the instance. *)

val homogeneous_caps : n:int -> cap:float -> Linalg.Vec.t
(* rodunits: cap:node-cap -> _ *)

val n_ops : t -> int

val n_nodes : t -> int

val dim : t -> int
(** Number of rate variables [d]. *)

val op_load : t -> int -> Linalg.Vec.t
(** Row [j] of [L^o] (shared; treat as read-only). *)

val total_coefficients : t -> Linalg.Vec.t
(** [l_k]: column sums of [L^o]. *)

val total_capacity : t -> float
(* rodunits: node-cap *)
(** [C_T = sum_i C_i]. *)

val normalized_point : t -> Linalg.Vec.t -> Linalg.Vec.t
(** Map a rate point [R] into the paper's normalized coordinates
    [x_k = l_k r_k / C_T] (§3.3), e.g. to turn a lower-bound point [B]
    into the hypersphere center of the MMPD-with-lower-bound metric. *)

val pp : Format.formatter -> t -> unit
