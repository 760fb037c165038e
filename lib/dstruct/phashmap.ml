(* Layout.
   Header block (32 B):  [0] nbuckets  [1] buckets pptr  [2] size counter.
   Buckets block:        [0] nbuckets  [1..n] chain heads (off-holders).
   Node (48 B):          [0] next (off-holder, spare bit 57 = deletion mark)
                         [1] hash  [2] key pptr  [3] key length
                         [4] value pptr  [5] value length.
   The bucket count is repeated in the buckets block so the filter function
   never walks past the live heads into stale superblock contents. *)

type t = { heap : Ralloc.t; header : int; reclaim : bool }

let node_bytes = 48
let mark_bit = 1 lsl 57
let is_marked w = w land mark_bit <> 0
let next_of ~holder w = Pptr.decode_counted ~holder w

let hash_string s =
  let h = ref 0x3bf29ce484222325 in
  String.iter
    (fun c ->
      h := (!h lxor Char.code c) * 0x100000001b3;
      h := !h land max_int)
    s;
  !h land max_int

(* --------------------------- filter functions --------------------------- *)

(* String blocks hold arbitrary bytes: visit them so they stay allocated,
   but enumerate no pointers inside. *)
let opaque_filter (_ : Ralloc.gc) (_ : int) = ()

let rec node_filter heap (gc : Ralloc.gc) va =
  let nxt = next_of ~holder:va (Ralloc.load heap va) in
  if nxt <> 0 then gc.visit ~filter:(node_filter heap) nxt;
  let key = Ralloc.read_ptr heap (va + 16) in
  if key <> 0 then gc.visit ~filter:opaque_filter key;
  let value = Ralloc.read_ptr heap (va + 32) in
  if value <> 0 then gc.visit ~filter:opaque_filter value

let buckets_filter heap (gc : Ralloc.gc) va =
  let n = Ralloc.load heap va in
  for i = 1 to n do
    let holder = va + (8 * i) in
    let head = next_of ~holder (Ralloc.load heap holder) in
    if head <> 0 then gc.visit ~filter:(node_filter heap) head
  done

let header_filter heap (gc : Ralloc.gc) va =
  let buckets = Ralloc.read_ptr heap (va + 8) in
  if buckets <> 0 then gc.visit ~filter:(buckets_filter heap) buckets

let filter heap gc va = header_filter heap gc va

(* ------------------------------ lifecycle ------------------------------ *)

let create ?(reclaim = false) heap ~root ~buckets =
  let buckets =
    let rec up n = if n >= buckets then n else up (n * 2) in
    up 16
  in
  let header = Ralloc.malloc heap 32 in
  let table = Ralloc.malloc heap ((buckets + 1) * 8) in
  if header = 0 || table = 0 then failwith "Phashmap.create: out of memory";
  Ralloc.store heap table buckets;
  for i = 1 to buckets do
    Ralloc.store heap (table + (8 * i)) Pptr.null
  done;
  Ralloc.flush_block_range heap table ((buckets + 1) * 8);
  Ralloc.store heap header buckets;
  Ralloc.write_ptr heap ~at:(header + 8) ~target:table;
  Ralloc.store heap (header + 16) 0;
  Ralloc.store heap (header + 24) 0;
  Ralloc.flush_block_range heap header 32;
  Ralloc.fence heap;
  Ralloc.set_root heap root header;
  ignore (Ralloc.get_root ~filter:(filter heap) heap root);
  { heap; header; reclaim }

let attach ?(reclaim = false) heap ~root =
  let header = Ralloc.get_root ~filter:(filter heap) heap root in
  if header = 0 then invalid_arg "Phashmap.attach: root is unset";
  { heap; header; reclaim }

let nbuckets t = Ralloc.load t.heap t.header
let table t = Ralloc.read_ptr t.heap (t.header + 8)

let bucket_word t key_hash =
  table t + (8 * (1 + (key_hash land (nbuckets t - 1))))

(* ------------------------------- strings ------------------------------- *)

let alloc_string t s =
  let va = Ralloc.malloc t.heap (max 8 (String.length s)) in
  if va = 0 then failwith "Phashmap: out of memory";
  Ralloc.store_string t.heap va s;
  Ralloc.flush_block_range t.heap va (String.length s);
  va

let node_key t n = Ralloc.load_string t.heap (Ralloc.read_ptr t.heap (n + 16)) (Ralloc.load t.heap (n + 24))
let node_value t n = Ralloc.load_string t.heap (Ralloc.read_ptr t.heap (n + 32)) (Ralloc.load t.heap (n + 40))

let node_matches t n h key =
  Ralloc.load t.heap (n + 8) = h && String.equal (node_key t n) key

(* ------------------------------ chain ops ------------------------------ *)

(* Release fence for post-publish durability fences (group commit).  Safe to
   defer only when unlinked nodes are leaked to the post-crash GC; with
   immediate reclamation the fence stays real, otherwise a freed node could
   be recycled and republished durably while a stale durable chain edge
   still points at it. *)
let fence_release t =
  if t.reclaim then Ralloc.fence t.heap else Ralloc.fence_release t.heap

(* Best-effort physical unlink of a marked [victim]; failure is harmless
   (reads skip marked nodes; the next crash's GC collects them). *)
let unlink t bucket victim =
  let rec walk holder =
    let w = Ralloc.load t.heap holder in
    let target = next_of ~holder w in
    if target = 0 then false
    else if target = victim then
      if is_marked w then false (* the predecessor is dying too: leave it *)
      else begin
        let vw = Ralloc.load t.heap victim in
        let succ = next_of ~holder:victim vw in
        let desired =
          if succ = 0 then Pptr.null else Pptr.encode ~holder ~target:succ
        in
        if Ralloc.cas t.heap holder ~expected:w ~desired then begin
          Ralloc.flush t.heap holder;
          fence_release t;
          if t.reclaim then begin
            Ralloc.free t.heap (Ralloc.read_ptr t.heap (victim + 16));
            Ralloc.free t.heap (Ralloc.read_ptr t.heap (victim + 32));
            Ralloc.free t.heap victim
          end;
          true
        end
        else false
      end
    else walk target
  in
  walk bucket

(* Mark the first live node matching [key] that lies strictly after
   [start_holder]'s target chain position; returns true if one was marked. *)
let mark_match t bucket ~after h key =
  let rec walk holder =
    let w = Ralloc.load t.heap holder in
    let target = next_of ~holder w in
    if target = 0 then false
    else begin
      let vw = Ralloc.load t.heap target in
      if (not (is_marked vw)) && target <> after && node_matches t target h key
      then
        if Ralloc.cas t.heap target ~expected:vw ~desired:(vw lor mark_bit)
        then begin
          Ralloc.flush t.heap target;
          fence_release t;
          ignore (unlink t bucket target);
          true
        end
        else walk holder (* lost a race on this node: re-examine *)
      else walk target
    end
  in
  walk bucket

(* ------------------------------ operations ----------------------------- *)

let set t key value =
  let h = hash_string key in
  let bucket = bucket_word t h in
  let node = Ralloc.malloc t.heap node_bytes in
  if node = 0 then failwith "Phashmap: out of memory";
  Ralloc.store t.heap (node + 8) h;
  (* nothing is published until the bucket CAS: on exhaustion, free what
     this call already took rather than strand it until the next GC *)
  let key_va =
    try alloc_string t key
    with Failure _ as e ->
      Ralloc.free t.heap node;
      raise e
  in
  Ralloc.write_ptr t.heap ~at:(node + 16) ~target:key_va;
  Ralloc.store t.heap (node + 24) (String.length key);
  let value_va =
    try alloc_string t value
    with Failure _ as e ->
      Ralloc.free t.heap key_va;
      Ralloc.free t.heap node;
      raise e
  in
  Ralloc.write_ptr t.heap ~at:(node + 32) ~target:value_va;
  Ralloc.store t.heap (node + 40) (String.length value);
  let rec insert () =
    let w = Ralloc.load t.heap bucket in
    let head = next_of ~holder:bucket w in
    Ralloc.write_ptr t.heap ~at:node ~target:head;
    Ralloc.flush_block_range t.heap node node_bytes;
    Ralloc.fence t.heap;
    if
      Ralloc.cas t.heap bucket ~expected:w
        ~desired:(Pptr.encode ~holder:bucket ~target:node)
    then begin
      (* bucket publish: its durability is ack-only *)
      Ralloc.flush t.heap bucket;
      fence_release t
    end
    else insert ()
  in
  insert ();
  (* retire the previous binding, if any *)
  let replaced = mark_match t bucket ~after:node h key in
  not replaced

let get t key =
  let h = hash_string key in
  let rec walk holder =
    let w = Ralloc.load t.heap holder in
    let target = next_of ~holder w in
    if target = 0 then None
    else
      let vw = Ralloc.load t.heap target in
      if (not (is_marked vw)) && node_matches t target h key then
        Some (node_value t target)
      else walk target
  in
  walk (bucket_word t h)

let mem t key = get t key <> None

let delete t key =
  let h = hash_string key in
  let bucket = bucket_word t h in
  mark_match t bucket ~after:0 h key

(* Computed from the chains rather than kept as a counter: a counter word
   would need its own flush+fence on every operation to survive crashes,
   and the chains are the truth anyway. *)
let length t =
  let tbl = table t in
  let total = ref 0 in
  for i = 1 to nbuckets t do
    let rec walk holder =
      let w = Ralloc.load t.heap holder in
      let target = next_of ~holder w in
      if target <> 0 then begin
        if not (is_marked (Ralloc.load t.heap target)) then incr total;
        walk target
      end
    in
    walk (tbl + (8 * i))
  done;
  !total

let iter f t =
  let tbl = table t in
  for i = 1 to nbuckets t do
    let rec walk holder =
      let w = Ralloc.load t.heap holder in
      let target = next_of ~holder w in
      if target <> 0 then begin
        if not (is_marked (Ralloc.load t.heap target)) then
          f (node_key t target) (node_value t target);
        walk target
      end
    in
    walk (tbl + (8 * i))
  done
