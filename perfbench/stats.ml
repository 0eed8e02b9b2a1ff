(* Order statistics for the reported metrics. *)

let median xs =
  let a = Array.of_list xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.median: no values";
  Array.sort Float.compare a;
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* A percentile is reported only when at least ten samples lie beyond
   it, so that it is not one outlier. *)
let supports ~count p = float_of_int count *. (1. -. (p /. 100.)) >= 10.

(* Linear interpolation between order statistics, [p] in [0, 100]. *)
let percentile xs p =
  let a = Array.copy xs in
  let n = Array.length a in
  if not (supports ~count:n p) then
    Error (Printf.sprintf "p%g needs ten samples beyond it, have %d samples" p n)
  else begin
    Array.sort Float.compare a;
    let r = p /. 100. *. float_of_int (n - 1) in
    let lo = truncate r in
    let hi = min (n - 1) (lo + 1) in
    let f = r -. float_of_int lo in
    Ok (a.(lo) +. (f *. (a.(hi) -. a.(lo))))
  end

(* [Obs.Samples] keeps only a prefix of its values, and its percentile
   reads only that prefix: refuse when values were dropped. *)
let samples_percentile s p =
  let count = Obs.Samples.count s in
  let stored = Array.length (Obs.Samples.to_array s) in
  if count > stored then
    Error
      (Printf.sprintf "%d samples but only %d stored; percentile refused" count
         stored)
  else if not (supports ~count p) then
    Error (Printf.sprintf "p%g needs ten samples beyond it, have %d" p count)
  else Ok (Obs.Samples.percentile s p)
