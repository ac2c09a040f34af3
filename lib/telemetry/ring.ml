(* The buffer is made on the first push and dropped by [clear], so a
   ring that is never pushed to costs a record, not [capacity] slots. *)
type 'a t = {
  mutable buf : 'a array;  (* [||] until the first push *)
  capacity : int;
  dummy : 'a;
  mutable start : int;  (* index of the oldest live element *)
  mutable len : int;
  mutable dropped : int;
  mutable total : int;
}

let create ~capacity ~dummy =
  if capacity <= 0 then invalid_arg "Ring.create: capacity must be positive";
  { buf = [||]; capacity; dummy; start = 0; len = 0; dropped = 0; total = 0 }

let length t = t.len
let dropped t = t.dropped
let total t = t.total

let push t x =
  if Array.length t.buf = 0 then t.buf <- Array.make t.capacity t.dummy;
  let cap = t.capacity in
  t.total <- t.total + 1;
  if t.len = cap then begin
    (* full: overwrite the oldest, counting it as dropped *)
    Array.unsafe_set t.buf t.start x;
    t.start <- (t.start + 1) mod cap;
    t.dropped <- t.dropped + 1
  end
  else begin
    t.buf.((t.start + t.len) mod cap) <- x;
    t.len <- t.len + 1
  end

let iter f t =
  let cap = Array.length t.buf in
  for i = 0 to t.len - 1 do
    f t.buf.((t.start + i) mod cap)
  done

let to_list t =
  let cap = Array.length t.buf in
  List.init t.len (fun i -> t.buf.((t.start + i) mod cap))

let clear t =
  t.buf <- [||];
  t.start <- 0;
  t.len <- 0;
  t.dropped <- 0;
  t.total <- 0
