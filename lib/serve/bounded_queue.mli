(** Bounded FIFO with typed rejection.

    The serve engines' ingress queues: the producer {!try_push}es and
    is told [Full] the instant a queue is at capacity — backpressure
    is an explicit, typed outcome (the engine sheds the request and
    says why), never a blocked producer.  Consumers take with
    {!pop_opt}, never blocking either: an idle consumer waits on a
    {!Doorbell} the producer rings after each push.  Any number of
    domains may push and pop; every operation is domain-safe. *)

type 'a t

type reject =
  | Full  (** at capacity — the caller should shed *)
  | Closed  (** the service is shutting down *)

val create : capacity:int -> 'a t
(** Raises [Invalid_argument] when [capacity < 1]. *)

val capacity : 'a t -> int

val length : 'a t -> int
(** Current occupancy; always [<= capacity]. *)

val try_push : 'a t -> 'a -> (unit, reject) result
(** Never blocks and never exceeds capacity. *)

val pop_opt : 'a t -> 'a option
(** Oldest element, or [None] when empty (also when closed — close
    does not discard queued elements). *)

val close : 'a t -> unit
(** Reject future pushes with [Closed]; queued elements remain
    poppable. *)

val is_closed : 'a t -> bool

val drain : 'a t -> 'a list
(** Pop everything, oldest first. *)
