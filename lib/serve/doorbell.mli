(** Blocking wake-up for queue consumers: idle workers sleep until a
    producer rings, instead of sleep-polling.

    A doorbell is a sequence counter guarded by a mutex and a
    condition.  Producers {!ring} after every state change a consumer
    must react to (a successful push, a close, an ownership hand-off);
    consumers run {!serve}, which reads the sequence {e before} each
    sweep of their queues and blocks only if no ring landed since.  A
    ring between the read and the block therefore cannot be lost —
    which matters, because there is no timed wait to fall back on: a
    missed ring is a hang, not a delay.

    One doorbell may serve any number of consumers: {!ring} wakes all
    of them, and each re-sweeps what it owns. *)

type t

val create : unit -> t

val ring : t -> unit
(** Advance the sequence and wake every consumer blocked in {!serve}.
    Domain-safe; cheap when nobody is waiting. *)

val serve : t -> closing:(unit -> bool) -> sweep:(unit -> bool) -> unit
(** The consumer loop.  [sweep ()] serves whatever the caller can take
    and says whether it served anything; [closing ()] says whether
    producers have stopped for good.  Loops until a sweep that started
    after [closing ()] held finds nothing, blocking between empty
    sweeps until the next {!ring}.  Producers must make everything
    pushed before the close visible before [closing ()] turns true, and
    ring after it does. *)
