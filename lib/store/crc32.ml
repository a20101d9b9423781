(* Slicing-by-8 over native ints: a 32-bit CRC fits an OCaml [int],
   so no step boxes an [Int32].  [tables] holds eight 256-entry tables
   back to back; table [k] advances a byte that sits [k] bytes before
   the end of an 8-byte block, so one block costs eight independent
   lookups instead of eight dependent ones.

   Built eagerly: a module-level [lazy] forced for the first time by
   two domains at once raises [Lazy.Undefined]. *)
let tables =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let prev = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xFF)
    done
  done;
  t

(* Every index is a masked byte plus a table offset, so the reads stay
   inside [tables] unchecked; checked reads made the CRC ~3x slower. *)
let tbl k i = Array.unsafe_get tables ((k lsl 8) lor i)

(* Each 8-byte block is read as two 32-bit words: one 64-bit read
   converted to [int] would drop bit 63. *)
let word s i = Int32.to_int (String.get_int32_le s i) land 0xFFFFFFFF

let digest_sub s ~pos ~len =
  if pos < 0 || len < 0 || pos > String.length s - len then
    invalid_arg "Crc32.digest_sub";
  let c = ref 0xFFFFFFFF in
  let i = ref pos in
  let stop = pos + len in
  while !i + 8 <= stop do
    let lo = word s !i lxor !c and hi = word s (!i + 4) in
    c :=
      tbl 7 (lo land 0xFF)
      lxor tbl 6 ((lo lsr 8) land 0xFF)
      lxor tbl 5 ((lo lsr 16) land 0xFF)
      lxor tbl 4 (lo lsr 24)
      lxor tbl 3 (hi land 0xFF)
      lxor tbl 2 ((hi lsr 8) land 0xFF)
      lxor tbl 1 ((hi lsr 16) land 0xFF)
      lxor tbl 0 (hi lsr 24);
    i := !i + 8
  done;
  while !i < stop do
    c := tbl 0 ((!c lxor Char.code s.[!i]) land 0xFF) lxor (!c lsr 8);
    incr i
  done;
  Int32.of_int (!c lxor 0xFFFFFFFF)

let digest s = digest_sub s ~pos:0 ~len:(String.length s)
