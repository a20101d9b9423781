(* Writers append to a Buffer; readers walk a string with a cursor.
   All multi-byte values are little-endian.  Readers validate ranges
   and bounds eagerly: a corrupt byte raises Corrupt right where it is
   found, and Artifact.load maps that to a typed error. *)

let u8 buf v =
  if v < 0 || v > 0xFF then invalid_arg "Wire.u8: out of range";
  Buffer.add_uint8 buf v

let u16 buf v =
  if v < 0 || v > 0xFFFF then invalid_arg "Wire.u16: out of range";
  Buffer.add_uint16_le buf v

let u32 buf v =
  if v < 0 || v > 0xFFFFFFFF then invalid_arg "Wire.u32: out of range";
  Buffer.add_int32_le buf (Int32.of_int v)

let i64 = Buffer.add_int64_le
let int_ buf v = Buffer.add_int64_le buf (Int64.of_int v)
let f64 buf v = Buffer.add_int64_le buf (Int64.bits_of_float v)
let bool_ buf v = Buffer.add_uint8 buf (if v then 1 else 0)

let str buf s =
  u32 buf (String.length s);
  Buffer.add_string buf s

let opt write buf = function
  | None -> Buffer.add_uint8 buf 0
  | Some v ->
      Buffer.add_uint8 buf 1;
      write buf v

let list_ write buf l =
  u32 buf (List.length l);
  List.iter (write buf) l

let array_ write buf a =
  u32 buf (Array.length a);
  Array.iter (write buf) a

type reader = { data : string; mutable pos : int; stop : int }

exception Corrupt of string

let corrupt msg = raise (Corrupt msg)

let reader ?(pos = 0) ?len data =
  let stop = match len with None -> String.length data | Some n -> pos + n in
  if pos < 0 || stop < pos || stop > String.length data then
    invalid_arg "Wire.reader";
  { data; pos; stop }

let pos r = r.pos
let remaining r = r.stop - r.pos

let need r n =
  if n < 0 || remaining r < n then
    corrupt (Printf.sprintf "truncated: need %d bytes at offset %d" n r.pos)

let read_u8 r =
  need r 1;
  let v = String.get_uint8 r.data r.pos in
  r.pos <- r.pos + 1;
  v

let read_u16 r =
  need r 2;
  let v = String.get_uint16_le r.data r.pos in
  r.pos <- r.pos + 2;
  v

let read_u32 r =
  need r 4;
  let v = Int32.to_int (String.get_int32_le r.data r.pos) land 0xFFFFFFFF in
  r.pos <- r.pos + 4;
  v

let read_i64 r =
  need r 8;
  let v = String.get_int64_le r.data r.pos in
  r.pos <- r.pos + 8;
  v

(* Inlined rather than built on [read_i64], so the word never leaves
   a register as a boxed [int64]. *)
let read_int r =
  need r 8;
  let v = String.get_int64_le r.data r.pos in
  let i = Int64.to_int v in
  if not (Int64.equal (Int64.of_int i) v) then
    corrupt "int out of native range";
  r.pos <- r.pos + 8;
  i

let read_f64 r = Int64.float_of_bits (read_i64 r)

let read_bool r =
  match read_u8 r with
  | 0 -> false
  | 1 -> true
  | n -> corrupt (Printf.sprintf "bad bool byte %d" n)

let read_str r =
  let n = read_u32 r in
  need r n;
  let s = String.sub r.data r.pos n in
  r.pos <- r.pos + n;
  s

let read_opt read r =
  match read_u8 r with
  | 0 -> None
  | 1 -> Some (read r)
  | n -> corrupt (Printf.sprintf "bad option tag %d" n)

(* Every element encoding is at least one byte, so a count exceeding
   the remaining bytes is corrupt — checked before allocating. *)
let read_count r =
  let n = read_u32 r in
  if n > remaining r then corrupt "element count exceeds remaining bytes";
  n

(* Sequential reads must happen in element order; List.init/Array.init
   leave evaluation order unspecified, so loop explicitly. *)
let read_list read r =
  let n = read_count r in
  let acc = ref [] in
  for _ = 1 to n do
    acc := read r :: !acc
  done;
  List.rev !acc

let read_array read r =
  let n = read_count r in
  if n = 0 then [||]
  else begin
    let first = read r in
    let a = Array.make n first in
    for i = 1 to n - 1 do
      a.(i) <- read r
    done;
    a
  end

let expect_end r =
  if remaining r <> 0 then
    corrupt (Printf.sprintf "%d trailing bytes after value" (remaining r))
