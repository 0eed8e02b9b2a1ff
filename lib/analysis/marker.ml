(* The one reader of marker comments for every analyzer pass.  A
   marker counts only after a comment opener on the same line, so a
   string literal that merely spells it is no marker.  See marker.mli. *)

let find_sub s needle ~from =
  let sl = String.length s and nl = String.length needle in
  let rec go i =
    if i + nl > sl then None
    else if String.sub s i nl = needle then Some i
    else go (i + 1)
  in
  go from

let find line marker =
  Option.bind (find_sub line "(*" ~from:0) (fun c ->
      find_sub line marker ~from:(c + 2))

let rest line marker =
  Option.map
    (fun i ->
      let from = i + String.length marker in
      let stop =
        Option.value (find_sub line "*)" ~from) ~default:(String.length line)
      in
      String.sub line from (stop - from))
    (find line marker)

let split s =
  String.split_on_char ' ' s
  |> List.concat_map (String.split_on_char ',')
  |> List.filter (fun t -> t <> "")

let tokens line marker = Option.map split (rest line marker)
let lines text = String.split_on_char '\n' text
let in_text text marker = List.exists (fun l -> find l marker <> None) (lines text)

let expect marker text =
  List.concat_map
    (fun l -> Option.value (tokens l marker) ~default:[])
    (lines text)
