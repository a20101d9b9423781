(** Byte-level wire primitives of the artifact store.

    Everything the store writes is built from these few explicit
    little-endian encoders — no [Marshal], so files are stable across
    compiler versions, inspectable with a hex dump, and a reader can
    never execute attacker-controlled structure.  Writers append to a
    [Buffer.t]; readers consume a string through a mutable cursor and
    raise {!Corrupt} on any malformed byte, which {!Artifact.load}
    turns into a typed error. *)

(** {2 Writers} *)

val u8 : Buffer.t -> int -> unit
(** Raises [Invalid_argument] outside \[0, 255\]. *)

val u16 : Buffer.t -> int -> unit
(** Little-endian; raises [Invalid_argument] outside \[0, 65535\]. *)

val u32 : Buffer.t -> int -> unit
(** Little-endian; raises [Invalid_argument] outside \[0, 2{^32}-1\]. *)

val i64 : Buffer.t -> int64 -> unit

val int_ : Buffer.t -> int -> unit
(** An OCaml [int] as a 64-bit two's-complement word. *)

val f64 : Buffer.t -> float -> unit
(** IEEE-754 bits — floats round-trip exactly. *)

val bool_ : Buffer.t -> bool -> unit
val str : Buffer.t -> string -> unit
(** [u32] byte length, then the bytes. *)

val opt : (Buffer.t -> 'a -> unit) -> Buffer.t -> 'a option -> unit
val list_ : (Buffer.t -> 'a -> unit) -> Buffer.t -> 'a list -> unit
val array_ : (Buffer.t -> 'a -> unit) -> Buffer.t -> 'a array -> unit

(** {2 Readers} *)

type reader
(** A cursor over a range of an immutable byte string. *)

exception Corrupt of string
(** Raised by every reader on truncation, a bad tag byte, or an
    out-of-range value.  Never escapes {!Artifact.load}. *)

val reader : ?pos:int -> ?len:int -> string -> reader
(** A cursor over [len] bytes (default: the rest of the string) from
    [pos] (default 0).  Raises [Invalid_argument] when the range is
    outside the string. *)

val pos : reader -> int
val remaining : reader -> int

val corrupt : string -> 'a
(** [corrupt msg] raises {!Corrupt} — for codec-level validation. *)

val read_u8 : reader -> int
val read_u16 : reader -> int
val read_u32 : reader -> int
val read_i64 : reader -> int64
val read_int : reader -> int
val read_f64 : reader -> float
val read_bool : reader -> bool
val read_str : reader -> string
val read_opt : (reader -> 'a) -> reader -> 'a option
val read_list : (reader -> 'a) -> reader -> 'a list
val read_array : (reader -> 'a) -> reader -> 'a array

val expect_end : reader -> unit
(** Raises {!Corrupt} unless the cursor consumed every byte. *)
