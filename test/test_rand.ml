(* The random state of every QCheck property in the suite.  Pinned by
   default, so each run checks the same cases and a red run replays
   exactly; QCHECK_SEED=<int> picks another seed to explore with. *)

let default_seed = 0x5eed

let get () =
  let seed =
    match Option.bind (Sys.getenv_opt "QCHECK_SEED") int_of_string_opt with
    | Some s -> s
    | None -> default_seed
  in
  Random.State.make [| seed |]
