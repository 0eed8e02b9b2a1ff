(* rodlint: hot *)
(* Fixture: every hot-path rule fires. *)

let sort_keys keys = Array.sort compare keys

let is_origin x = x = 0.0
