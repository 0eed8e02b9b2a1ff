(* rodlint: hot *)
(* Fixture: hot-path-safe equivalents — no findings. *)

let sort_keys keys = Array.sort Float.compare keys

let is_origin x = Float.abs x < 1e-12
