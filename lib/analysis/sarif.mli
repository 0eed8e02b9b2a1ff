(** Minimal SARIF 2.1.0 emitter, shared by [tools/rodcheck] and
    [rod_cli analyze --sarif] so both static-analysis surfaces speak
    the same machine-readable format (one [run] per analyzer, one
    [result] per finding). *)

type result = {
  rule_id : string;  (** Stable rule id, e.g. ["det/taint"]. *)
  level : string;  (** SARIF level: ["error"], ["warning"] or ["note"]. *)
  message : string;
  file : string option;  (** Artifact URI; omitted when [None]. *)
  line : int option;  (** 1-based start line. *)
  col : int option;  (** 0-based compiler column; emitted +1. *)
}

type rule = {
  id : string;  (** Stable rule id, e.g. ["det/taint"]. *)
  short_desc : string;  (** One-line description; [""] omits it. *)
  help_uri : string;
      (** Documentation link (a [DESIGN.md] anchor); [""] omits it. *)
}
(** Entry of a run's rule table ([tool.driver.rules]), so
    code-scanning UIs can link findings back to the rule catalogue. *)

val rule : ?help_uri:string -> string -> string -> rule
(** [rule ?help_uri id short_desc]. *)

val rules_of_catalogue : help_uri:string -> (string * string) list -> rule list
(** Lift an [(id, description)] rule catalogue (the shape [Scan.rules]
    and [Proto.rules] export) into SARIF rule metadata sharing one
    documentation anchor. *)

type run = {
  tool : string;  (** [tool.driver.name], e.g. ["rodscan"]. *)
  rules : rule list;  (** The driver's rule table; [[]] omits it. *)
  results : result list;
}
(** One analyzer's run. *)

val to_string : run list -> string
(** Render one SARIF document holding the runs in the order given. *)

val write : path:string -> run list -> unit
