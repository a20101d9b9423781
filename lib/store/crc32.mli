(** CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320).

    The frame checksum of the artifact store.  A 32-bit CRC detects
    every single-bit flip and every burst shorter than 32 bits — the
    corruption modes a torn write or a flipped disk/DRAM bit produces —
    which is exactly the failure envelope {!Artifact.load} must turn
    into typed errors instead of undefined behaviour.  The cluster
    protocol checksums every frame with it too.

    Computed slicing-by-8 over native [int]s (eight 256-entry tables,
    one 8-byte block per step, a byte-wise tail), so no step boxes an
    [int32]; only the result is. *)

val digest : string -> int32
(** CRC-32 of the whole string. *)

val digest_sub : string -> pos:int -> len:int -> int32
(** CRC-32 of a substring.  Raises [Invalid_argument] when the range
    is outside the string. *)
