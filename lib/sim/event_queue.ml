(* A binary min-heap over three parallel arrays: slot [i] holds the
   event [(times.(i), seqs.(i), payloads.(i))].  Pushing and taking move
   a hole instead of swapping, so neither allocates outside growth. *)

type 'a t = {
  mutable times : float array;
  mutable seqs : int array;
  mutable payloads : 'a array;
  mutable size : int;
  mutable next_seq : int;
}

let create () = { times = [||]; seqs = [||]; payloads = [||]; size = 0; next_seq = 0 }

let is_empty q = q.size = 0

let length q = q.size

let top_time q = if q.size = 0 then infinity else q.times.(0)

(* [filler] initialises the fresh payload slots; it is the payload about
   to be pushed, so no dummy value of type ['a] is needed. *)
let grow q filler =
  let capacity = max 16 (2 * q.size) in
  let times = Array.make capacity 0. and seqs = Array.make capacity 0 in
  let payloads = Array.make capacity filler in
  Array.blit q.times 0 times 0 q.size;
  Array.blit q.seqs 0 seqs 0 q.size;
  Array.blit q.payloads 0 payloads 0 q.size;
  q.times <- times;
  q.seqs <- seqs;
  q.payloads <- payloads

let move q ~src ~dst =
  q.times.(dst) <- q.times.(src);
  q.seqs.(dst) <- q.seqs.(src);
  q.payloads.(dst) <- q.payloads.(src)

let push q ~time payload =
  if q.size = Array.length q.times then grow q payload;
  let seq = q.next_seq in
  q.next_seq <- seq + 1;
  (* The new event has the largest sequence number, so it rises past a
     parent only when its time is strictly earlier. *)
  let hole = ref q.size in
  q.size <- q.size + 1;
  while !hole > 0 && time < q.times.((!hole - 1) / 2) do
    let parent = (!hole - 1) / 2 in
    move q ~src:parent ~dst:!hole;
    hole := parent
  done;
  q.times.(!hole) <- time;
  q.seqs.(!hole) <- seq;
  q.payloads.(!hole) <- payload

(* Slot [i] comes before slot [j] in [(time, seq)] order. *)
let before q i j =
  let ti = q.times.(i) and tj = q.times.(j) in
  ti < tj || (ti = tj && q.seqs.(i) < q.seqs.(j))

let take q =
  if q.size = 0 then invalid_arg "Event_queue.take: empty queue";
  let top = q.payloads.(0) in
  let last = q.size - 1 in
  q.size <- last;
  if last > 0 then begin
    (* Sift the last event down from the root. *)
    let hole = ref 0 and sinking = ref true in
    while !sinking do
      let left = (2 * !hole) + 1 in
      if left >= last then sinking := false
      else begin
        let child =
          if left + 1 < last && before q (left + 1) left then left + 1 else left
        in
        if before q child last then begin
          move q ~src:child ~dst:!hole;
          hole := child
        end
        else sinking := false
      end
    done;
    move q ~src:last ~dst:!hole
  end;
  top
