let sort_stream ~fn ~stream ~time items =
  let ascending = ref true and last = ref 0. in
  List.iteri
    (fun i item ->
      let t = time item in
      if not (Float.is_finite t && t >= 0.) then
        invalid_arg
          (Printf.sprintf "%s: stream %d arrival %d has time %g (must be finite and >= 0)"
             fn stream i t);
      if t < !last then ascending := false;
      last := t)
    items;
  let a = Array.of_list items in
  if not !ascending then Array.stable_sort (fun x y -> Float.compare (time x) (time y)) a;
  a

(* The cursor is a k-way merge over the per-stream arrays: [next.(k)]
   is stream [k]'s first unread arrival, and [head] the stream holding
   the earliest one (the lowest index among equal times), or [-1] once
   every stream is read. *)
let run times events ~until ~arrive ~handle =
  let next = Array.make (Array.length times) 0 and head = ref (-1) in
  let find_head () =
    head := -1;
    for k = 0 to Array.length times - 1 do
      let i = next.(k) in
      if i < Array.length times.(k) && (!head < 0 || times.(k).(i) < times.(!head).(next.(!head)))
      then head := k
    done
  in
  find_head ();
  let rec loop () =
    let next_event = Event_queue.top_time events in
    if !head >= 0 && times.(!head).(next.(!head)) <= next_event then begin
      let k = !head and i = next.(!head) in
      let now = times.(k).(i) in
      if now <= until then begin
        next.(k) <- i + 1;
        find_head ();
        arrive now k i;
        loop ()
      end
    end
    else if next_event <= until && not (Event_queue.is_empty events) then begin
      handle next_event (Event_queue.take events);
      loop ()
    end
  in
  loop ()
