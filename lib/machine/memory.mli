(** Sparse, byte-addressable simulated physical memory.

    Memory is organized as 4 KiB pages allocated on demand inside
    explicitly mapped regions.  The page is the unit of mapping, of
    {!Fault}s, of translation ({!page_of}, {!strike_tlb}) and of the
    software TLB; copy-on-write between {!copy}-related memories works
    in 512-byte blocks, eight per page.  Accesses outside mapped regions raise
    {!Fault}, which the CPU translates into a page-fault hardware
    exception — the mechanism behind most of the paper's
    hardware-exception detections (a bit-flipped pointer usually walks
    off the mapped address space). *)

type t

exception Fault of { addr : int64; write : bool }
(** Access to an unmapped address. *)

val page_size : int
(** 4096. *)

val create : unit -> t
(** Fresh memory with nothing mapped. *)

val map_region : t -> addr:int64 -> size:int -> unit
(** Make \[addr, addr+size) accessible, zero-filled.  Overlapping an
    existing region is allowed (idempotent). *)

val unmap_region : t -> addr:int64 -> size:int -> unit
(** Remove all pages intersecting the region. *)

val is_mapped : t -> int64 -> bool
(** Is the single byte at this address accessible? *)

val load8 : t -> int64 -> int
val store8 : t -> int64 -> int -> unit

val load64 : t -> int64 -> int64
(** Little-endian, no alignment requirement; raises {!Fault} if any of
    the eight bytes is unmapped. *)

val store64 : t -> int64 -> int64 -> unit

val blit_out : t -> addr:int64 -> len:int -> Bytes.t
(** Copy a mapped byte range out (for golden-run comparison). *)

val region_equal : t -> t -> addr:int64 -> len:int -> bool
(** Byte-wise comparison of the same range in two memories; unmapped
    bytes compare equal to unmapped bytes and differ from any mapped
    byte. *)

val first_difference : t -> t -> addr:int64 -> len:int -> int64 option
(** Address of the first differing byte in the range, if any. *)

val copy : t -> t
(** Snapshot via copy-on-write: every page is shared between source
    and copy and frozen, so the two memories never observe each
    other's subsequent writes.  Either side's first write to a frozen
    page re-binds that page to a fresh record sharing the old one's
    eight 512-byte blocks and copies only the block written; later
    writes to another shared block of that page copy just that block.
    Cloning is O(1) in mapped pages, a fork pays 512 bytes per block
    it writes (a minor-heap allocation, not a 4 KiB major-heap one),
    and {!first_difference} skips page records and blocks the two
    memories still share, without reading a byte.  Each block copy
    counts once in the [memory.cow.privatise] telemetry counter. *)

val page_of : int64 -> int64
(** The page number an address belongs to ([addr >> 12]). *)

(** {2 Fault-injection strikes}

    Entry points for the widened fault model: both mutate through the
    normal COW write path (or rebind the page table), so strikes on a
    cloned host never alias into the host it was copied from, and a
    strike followed by {!copy} behaves like any other write. *)

val flip_word : t -> int64 -> mask:int64 -> bool
(** XOR the 64-bit word at [addr] with [mask] (a memory-word upset).
    [false] (and no effect) when any byte of the word is unmapped. *)

val strike_tlb : t -> page:int64 -> bit:int -> bool
(** Corrupt the translation of [page] as if bit [bit] of its cached
    frame number flipped: accesses to [page] are steered at page
    [page lxor (1 lsl bit)] — aliasing that frame when it is mapped,
    page-faulting when it is not.  [false] (and no effect) when
    [page] itself is unmapped.  Bumps the TLB generation. *)

val mapped_bytes : t -> int
(** Total bytes currently mapped (page-granular). *)

val page_count : t -> int
(** Number of mapped pages. *)

val private_pages : t -> int
(** Pages this memory owns (mapped or written since the last snapshot
    involving them; an owned page may still share some of its blocks
    with a snapshot); [page_count t - private_pages t] pages are
    shared with or frozen by snapshots.  Observability hook for
    benchmarks and the copy-on-write tests. *)

val tlb_generation : t -> int
(** Current generation of the software TLB fronting the page table.
    Translations cached at an older generation are dead; {!copy} and
    {!unmap_region} bump it.  Observability hook for the TLB
    invalidation tests. *)
