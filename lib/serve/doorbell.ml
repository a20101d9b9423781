(* The sequence is an Atomic so a consumer can read it before a sweep
   without the lock; it only ever advances under the lock, and a waiter
   re-checks it under the lock, so a ring cannot slip between the check
   and Condition.wait. *)

type t = { lock : Mutex.t; rung : Condition.t; seq : int Atomic.t }

let create () =
  { lock = Mutex.create (); rung = Condition.create (); seq = Atomic.make 0 }

let ring t =
  Mutex.protect t.lock (fun () ->
      Atomic.incr t.seq;
      Condition.broadcast t.rung)

let wait t ~seen =
  Mutex.protect t.lock (fun () ->
      while Atomic.get t.seq = seen do
        Condition.wait t.rung t.lock
      done)

let serve t ~closing ~sweep =
  let rec loop () =
    let seen = Atomic.get t.seq in
    (* Read before the sweep: once closing holds, nothing more arrives,
       so an empty sweep that started after it means done. *)
    let closed = closing () in
    if sweep () then loop ()
    else if not closed then begin
      wait t ~seen;
      loop ()
    end
  in
  loop ()
