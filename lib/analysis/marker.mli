(** Marker comments, read the same way by every analyzer pass.

    A marker (["rodlint: hot"], ["rodproto: role paused"],
    ["rodscan-expect: det/taint"], ...) counts only when a comment opener ["(*"] comes before it on the same line.  A
    string literal that merely spells a marker is therefore no marker,
    so the analyzers' own sources can name the markers they look
    for. *)

val find : string -> string -> int option
(** [find line marker] is the offset of [marker] in [line], when it
    follows a ["(*"] there. *)

val rest : string -> string -> string option
(** [rest line marker] is the text after the marker, up to the next
    ["*)"] or the end of the line. *)

val tokens : string -> string -> string list option
(** {!rest} split on spaces and commas, empty tokens dropped. *)

val in_text : string -> string -> bool
(** [in_text text marker]: some line of [text] carries [marker]. *)

val expect : string -> string -> string list
(** [expect marker text] is every token after [marker] in [text], in
    order: a fixture's expected rule ids. *)
