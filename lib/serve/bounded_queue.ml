(* Mutex-protected ring buffer.  The ingress queues are small (tens to
   a few thousand slots) and taken from by one or a few consumers, so a
   plain lock beats cleverness: push/pop hold the lock for a handful of
   loads/stores, and the explicit [Full] reject — not blocking — is the
   whole point (backpressure must surface as a typed shed, never as a
   stalled producer). *)

type 'a t = {
  lock : Mutex.t;
  slots : 'a option array;
  mutable head : int; (* index of the oldest element *)
  mutable len : int;
  mutable closed : bool;
}

type reject = Full | Closed

let create ~capacity =
  if capacity < 1 then
    invalid_arg (Printf.sprintf "Bounded_queue.create: capacity %d" capacity);
  {
    lock = Mutex.create ();
    slots = Array.make capacity None;
    head = 0;
    len = 0;
    closed = false;
  }

let capacity t = Array.length t.slots

let length t = Mutex.protect t.lock (fun () -> t.len)

let is_closed t = Mutex.protect t.lock (fun () -> t.closed)

let try_push t v =
  Mutex.protect t.lock (fun () ->
      if t.closed then Error Closed
      else if t.len >= Array.length t.slots then Error Full
      else begin
        let cap = Array.length t.slots in
        t.slots.((t.head + t.len) mod cap) <- Some v;
        t.len <- t.len + 1;
        (* The capacity bound is structural (len never exceeds the
           array), but make the invariant loud for the property test. *)
        assert (t.len <= cap);
        Ok ()
      end)

let pop_opt t =
  Mutex.protect t.lock (fun () ->
      if t.len = 0 then None
      else begin
        let v = t.slots.(t.head) in
        t.slots.(t.head) <- None;
        t.head <- (t.head + 1) mod Array.length t.slots;
        t.len <- t.len - 1;
        v
      end)

let close t = Mutex.protect t.lock (fun () -> t.closed <- true)

let drain t =
  let rec go acc = match pop_opt t with None -> List.rev acc | Some v -> go (v :: acc) in
  go []
