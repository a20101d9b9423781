exception Fault of { addr : int64; write : bool }

let page_size = 4096
let page_bits = 12

(* Copy-on-write works at two grains.  The 4 KiB page stays the unit
   of mapping, faults, TLB translation and [strike_tlb] aliasing; the
   unit of copying is a 512-byte block, eight per page.  A page record
   holds its eight blocks plus two tags:

   - [owner]: the id of the one memory allowed to write the record in
     place.  [copy] freezes every page of the source (owner 0 —
     nobody's) and shares the whole page table with the snapshot, so
     cloning is O(1) in mapped pages.  Whichever side writes a frozen
     record first re-binds its own page to a fresh record that shares
     all eight blocks; the other side's binding still reaches the
     original, so writes never alias across a snapshot in either
     direction.
   - [priv]: a bitmask of the blocks this record holds exclusively.
     Only those are written in place; a write to any other block of an
     owned record first copies just that block.

   A block is 64 words, below the minor heap's size limit, so the
   copies a short-lived fork makes are minor allocations that die
   young with the fork instead of 4 KiB major-heap blocks. *)
let block_bits = 9
let block_size = 1 lsl block_bits (* 512 *)
let block_mask = block_size - 1
let blocks_per_page = page_size / block_size (* 8 *)
let all_private = (1 lsl blocks_per_page) - 1

type page = {
  blocks : Bytes.t array;
  mutable owner : int;
  mutable priv : int;
}

(* The page table is a persistent map so that [copy] — the hot
   operation of snapshot capture and restore in injection campaigns —
   shares the root in O(1) instead of duplicating a mutable table.
   Updates (mapping, unmapping, COW privatisation) rebind the [pages]
   field; the peer memory keeps the old root, so structural sharing
   does the aliasing bookkeeping for free. *)
module PageMap = Map.Make (Int64)

(* Software TLB: a direct-mapped translation cache in front of the
   persistent map that backs the page table.  Load/store paths hit the
   arrays below and skip both the balanced-tree search and the
   [find_opt] option allocation.  A read slot caches a page's block
   array, so a load costs one extra array index over a flat page; a
   write slot caches the page record itself, whose [priv] mask the
   store checks before writing in place.

   Correctness hinges on invalidation, which is generation-based: an
   entry is live only while its [gen] slot equals the memory's current
   [generation].  The counter is bumped whenever a cached translation
   could go stale wholesale:

   - [copy] (snapshotting): the source loses ownership of every page,
     so cached *write* translations would let it scribble on frozen
     pages shared with the snapshot;
   - [unmap_region]: cached translations would resurrect dead pages.

   Re-binding a frozen page replaces only this memory's own binding,
   so it refreshes the affected slots in place instead of bumping the
   generation; copying a block of an owned record swaps an element of
   the block array the read slot already points at.  The peer memory's
   TLB is untouched — its binding still reaches the original record,
   which nobody will mutate again. *)
let tlb_bits = 7
let tlb_slots = 1 lsl tlb_bits (* 128 *)

type t = {
  id : int;
  mutable pages : page PageMap.t;
  (* Pages currently owned by this memory (mapped or re-bound since
     the last [copy]).  [copy] freezes exactly these instead of
     sweeping the whole page table, so cloning an already-frozen
     memory — the common case when one host is forked repeatedly —
     skips the sweep entirely.  Entries can go stale when a page is
     unmapped; freezing a detached record is harmless. *)
  mutable owned : page list;
  mutable generation : int;
  (* read TLB: record may be shared; safe for loads only *)
  r_tag : int64 array;
  r_gen : int array;
  r_data : Bytes.t array array;
  (* write TLB: record known owned by [id] *)
  w_tag : int64 array;
  w_gen : int array;
  w_page : page array;
}

let frozen = 0
let next_id = Atomic.make 1
let fresh_id () = Atomic.fetch_and_add next_id 1

(* Telemetry: probe outcomes for both TLBs plus COW block copies.
   Hot paths pre-check [Telemetry.enabled_ref] (one load + one
   predictable branch) so the disabled interpreter loop pays near
   nothing; the slow paths record unconditionally through the
   (internally gated) counter API. *)
module Tm = Xentry_util.Telemetry

let tm_read_hit = Tm.counter "memory.tlb.read.hit"
let tm_read_miss = Tm.counter "memory.tlb.read.miss"
let tm_write_hit = Tm.counter "memory.tlb.write.hit"
let tm_write_miss = Tm.counter "memory.tlb.write.miss"
let tm_cow = Tm.counter "memory.cow.privatise"

let no_page = { blocks = [||]; owner = frozen; priv = 0 }

let create () =
  {
    id = fresh_id ();
    pages = PageMap.empty;
    owned = [];
    (* Generation 1 with all-zero [gen] slots means a fresh TLB starts
       empty without initializing the tag arrays to a sentinel. *)
    generation = 1;
    r_tag = Array.make tlb_slots 0L;
    r_gen = Array.make tlb_slots 0;
    r_data = Array.make tlb_slots no_page.blocks;
    w_tag = Array.make tlb_slots 0L;
    w_gen = Array.make tlb_slots 0;
    w_page = Array.make tlb_slots no_page;
  }

let page_of addr = Int64.shift_right_logical addr page_bits
let offset_of addr = Int64.to_int (Int64.logand addr 0xFFFL)
let slot_of pn = Int64.to_int pn land (tlb_slots - 1)

let flush_tlb t = t.generation <- t.generation + 1

let map_region t ~addr ~size =
  if size < 0 then invalid_arg "Memory.map_region: negative size";
  if size = 0 then ()
  else
    let first = page_of addr in
    let last = page_of (Int64.add addr (Int64.of_int (size - 1))) in
    let rec go p =
      if Int64.compare p last <= 0 then begin
        if not (PageMap.mem p t.pages) then begin
          let pg =
            {
              blocks =
                Array.init blocks_per_page (fun _ ->
                    Bytes.make block_size '\000');
              owner = t.id;
              priv = all_private;
            }
          in
          t.pages <- PageMap.add p pg t.pages;
          t.owned <- pg :: t.owned
        end;
        go (Int64.add p 1L)
      end
    in
    go first

let unmap_region t ~addr ~size =
  if size > 0 then begin
    let first = page_of addr in
    let last = page_of (Int64.add addr (Int64.of_int (size - 1))) in
    let rec go p =
      if Int64.compare p last <= 0 then begin
        t.pages <- PageMap.remove p t.pages;
        go (Int64.add p 1L)
      end
    in
    go first;
    flush_tlb t
  end

(* TLB fill helpers: record a translation at the current generation. *)
let fill_read t slot pn blocks =
  t.r_tag.(slot) <- pn;
  t.r_gen.(slot) <- t.generation;
  t.r_data.(slot) <- blocks

let fill_write t slot pn pg =
  t.w_tag.(slot) <- pn;
  t.w_gen.(slot) <- t.generation;
  t.w_page.(slot) <- pg

let read_page_slow t addr pn slot =
  Tm.incr tm_read_miss;
  match PageMap.find_opt pn t.pages with
  | Some p ->
      fill_read t slot pn p.blocks;
      p.blocks
  | None -> raise (Fault { addr; write = false })

(* The block array of the page holding [addr]. *)
let read_page t addr =
  let pn = page_of addr in
  let slot = slot_of pn in
  if t.r_gen.(slot) = t.generation && Int64.equal t.r_tag.(slot) pn then begin
    if !Tm.enabled_ref then Tm.incr tm_read_hit;
    t.r_data.(slot)
  end
  else read_page_slow t addr pn slot

(* The page-grain half of the write path: a record this memory does
   not own is re-bound to a fresh owned record sharing all its blocks
   (none of them private yet).  Both TLB slots are refreshed —
   critically the *read* slot, which may still hold the shared
   record's block array. *)
let write_page_slow t addr pn slot =
  Tm.incr tm_write_miss;
  match PageMap.find_opt pn t.pages with
  | Some p when p.owner = t.id ->
      fill_write t slot pn p;
      fill_read t slot pn p.blocks;
      p
  | Some p ->
      let fresh = { blocks = Array.copy p.blocks; owner = t.id; priv = 0 } in
      t.pages <- PageMap.add pn fresh t.pages;
      t.owned <- fresh :: t.owned;
      fill_write t slot pn fresh;
      fill_read t slot pn fresh.blocks;
      fresh
  | None -> raise (Fault { addr; write = true })

(* The block-grain half: the first write to a shared block of an owned
   record copies just that block. *)
let privatise pg b =
  Tm.incr tm_cow;
  let data = Bytes.copy pg.blocks.(b) in
  pg.blocks.(b) <- data;
  pg.priv <- pg.priv lor (1 lsl b);
  data

(* The block holding [addr], writable in place. *)
let write_block t addr =
  let pn = page_of addr in
  let slot = slot_of pn in
  let pg =
    if t.w_gen.(slot) = t.generation && Int64.equal t.w_tag.(slot) pn then begin
      if !Tm.enabled_ref then Tm.incr tm_write_hit;
      t.w_page.(slot)
    end
    else write_page_slow t addr pn slot
  in
  let b = offset_of addr lsr block_bits in
  if pg.priv land (1 lsl b) <> 0 then pg.blocks.(b) else privatise pg b

let is_mapped t addr = PageMap.mem (page_of addr) t.pages

let block_offset addr = Int64.to_int addr land block_mask

let load8 t addr =
  Char.code
    (Bytes.get (read_page t addr).(offset_of addr lsr block_bits)
       (block_offset addr))

let store8 t addr v =
  Bytes.set (write_block t addr) (block_offset addr) (Char.chr (v land 0xFF))

(* A word whose eight bytes sit in one block takes the fast path; one
   straddling a block (and possibly a page) boundary goes byte by
   byte. *)
let in_one_block addr = block_offset addr <= block_size - 8

let load64 t addr =
  if in_one_block addr then
    Bytes.get_int64_le
      (read_page t addr).(offset_of addr lsr block_bits)
      (block_offset addr)
  else
    let rec go i acc =
      if i > 7 then acc
      else
        let b = load8 t (Int64.add addr (Int64.of_int i)) in
        go (i + 1) (Int64.logor acc (Int64.shift_left (Int64.of_int b) (8 * i)))
    in
    go 0 0L

let store64 t addr v =
  if in_one_block addr then
    Bytes.set_int64_le (write_block t addr) (block_offset addr) v
  else
    for i = 0 to 7 do
      let b =
        Int64.to_int
          (Int64.logand (Int64.shift_right_logical v (8 * i)) 0xFFL)
      in
      store8 t (Int64.add addr (Int64.of_int i)) b
    done

let blit_out t ~addr ~len =
  let out = Bytes.create len in
  for i = 0 to len - 1 do
    Bytes.set out i (Char.chr (load8 t (Int64.add addr (Int64.of_int i))))
  done;
  out

(* Offset (from [off]) of the first byte where blocks [a] and [b]
   differ within [off, off+n), or -1.  Word-at-a-time, dropping to
   bytes only to pin down the exact byte inside a mismatching word
   (and for the sub-word tail).  Top-level recursion throughout: the
   classifier calls [first_difference] for dozens of small regions
   per faulted run, so no closure is allocated per call. *)
let rec byte_difference a b off i limit =
  if i >= limit then -1
  else if Bytes.get a (off + i) <> Bytes.get b (off + i) then i
  else byte_difference a b off (i + 1) limit

let rec block_difference a b off n i =
  if n - i >= 8 then
    if Int64.equal (Bytes.get_int64_ne a (off + i)) (Bytes.get_int64_ne b (off + i))
    then block_difference a b off n (i + 8)
    else byte_difference a b off i (i + 8)
  else byte_difference a b off i n

(* Offset (from the page offset [off]) of the first difference within
   [chunk] bytes of two pages, or -1; blocks the pages share are
   skipped by pointer. *)
let rec page_difference pa pb off chunk i =
  if i >= chunk then -1
  else
    let o = off + i in
    let bo = o land block_mask in
    let n = min (block_size - bo) (chunk - i) in
    let ba = pa.blocks.(o lsr block_bits) and bb = pb.blocks.(o lsr block_bits) in
    let d = if ba == bb then -1 else block_difference ba bb bo n 0 in
    if d >= 0 then i + d else page_difference pa pb off chunk (i + n)

(* Walks the range a page at a time.  Page records and blocks still
   shared between the two memories — the common case for
   golden-vs-faulted hosts forked from one host — are skipped by
   pointer without reading a byte.  A mapped page differs from an
   unmapped one at its first byte in the range. *)
let rec range_difference a b addr len pos =
  if pos >= len then -1
  else
    let at = Int64.add addr (Int64.of_int pos) in
    let off = offset_of at in
    let chunk = min (page_size - off) (len - pos) in
    let d =
      match
        (PageMap.find_opt (page_of at) a.pages, PageMap.find_opt (page_of at) b.pages)
      with
      | None, None -> -1
      | Some pa, Some pb when pa == pb -> -1
      | Some pa, Some pb -> page_difference pa pb off chunk 0
      | Some _, None | None, Some _ -> 0
    in
    if d >= 0 then pos + d else range_difference a b addr len (pos + chunk)

let first_difference a b ~addr ~len =
  let d = range_difference a b addr len 0 in
  if d < 0 then None else Some (Int64.add addr (Int64.of_int d))

let region_equal a b ~addr ~len = first_difference a b ~addr ~len = None

let copy t =
  (* Freeze: after the snapshot neither side owns the shared pages, so
     the first write on either side re-binds rather than mutates.
     The source's cached translations die with the generation bump:
     stale write entries would bypass the ownership check and scribble
     on pages the snapshot now shares.  (Read entries are collateral
     damage — they still point at the right bytes — but one wholesale
     bump is cheaper than a tagged flush.)  A source that owns nothing
     — typical of a host being forked again — has no pages to freeze
     and, since write translations are only ever filled for owned
     pages, no stale write entries either, so both steps are
     skipped. *)
  if t.owned <> [] then begin
    List.iter (fun p -> p.owner <- frozen) t.owned;
    t.owned <- [];
    flush_tlb t
  end;
  { (create ()) with pages = t.pages }

(* {2 Fault-injection strikes}

   Both strikes go through the normal page-table/COW machinery, so a
   strike on a cloned host never leaks into the golden host it was
   copied from. *)

let flip_word t addr ~mask =
  let last = Int64.add addr 7L in
  if is_mapped t addr && is_mapped t last then begin
    store64 t addr (Int64.logxor (load64 t addr) mask);
    true
  end
  else false

let strike_tlb t ~page ~bit =
  let alias = Int64.logxor page (Int64.shift_left 1L bit) in
  match PageMap.find_opt page t.pages with
  | None -> false
  | Some _ ->
      (match PageMap.find_opt alias t.pages with
      | Some ap ->
          (* The corrupted translation resolves to the alias frame:
             both page numbers now reach one record, like two VAs
             steered at the same physical page. *)
          t.pages <- PageMap.add page ap t.pages
      | None ->
          (* The flipped frame number points at nothing — every access
             through the entry takes a page fault. *)
          t.pages <- PageMap.remove page t.pages);
      flush_tlb t;
      true

let mapped_bytes t = PageMap.cardinal t.pages * page_size

let private_pages t =
  PageMap.fold (fun _ p acc -> if p.owner = t.id then acc + 1 else acc) t.pages 0

let page_count t = PageMap.cardinal t.pages

let tlb_generation t = t.generation
