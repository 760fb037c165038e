let superblock_bytes = 65536
let superblock_words = superblock_bytes / 8
let descriptor_words = 8
let max_roots = 1024
let meta_magic = 0
let meta_dirty = 1
let meta_heap_size = 2
let meta_heap_id = 3
let meta_layout_version = 4
let meta_free_list_head = 8

(* Bumped whenever the metadata word layout changes incompatibly (a new
   carve-out moves [meta_words], a field or record format moves).
   v2 = the provenance ring + site table carve-outs; v3 = the metrics
   time-series black box; v4 = one Obs.Pring record format (checksum in
   the last word) for every ring; images formatted before the version
   word existed read 0 here.  Attach must refuse a mismatch rather than
   misread offsets. *)
let layout_version = 4
let roots_base = 16

let meta_root i =
  assert (i >= 0 && i < max_roots);
  roots_base + i

let class_records_base = roots_base + max_roots

(* one cache line per class record to mirror the paper's padding *)
let meta_class_block_size c = class_records_base + (c * 8)
let meta_class_partial_head c = class_records_base + (c * 8) + 1

(* The flight-recorder ring is carved out of the tail of the metadata
   region: a reserved, line-aligned window after the class records.
   [flight_words] comes from Obs.Flight so the carve-out can never drift
   from the recorder's own layout. *)
let flight_base = class_records_base + ((Size_class.count + 1) * 8) + 8
let flight_capacity = 256
let flight_words = Obs.Flight.words_for ~capacity:flight_capacity

(* The heap-provenance profiler's crash-surviving state sits after the
   flight ring: the provenance ring (sampled allocations and their
   frees, same entry protocol) and the interned site-name table that
   lets an offline inspector resolve its site ids.  Sizes come from
   Obs.Prof so the carve-outs can never drift from the writers. *)
let prov_base = flight_base + flight_words
let prov_capacity = 1024
let prov_words = Obs.Prof.Ring.words_for ~capacity:prov_capacity
let ptab_base = prov_base + prov_words
let ptab_capacity = 128
let ptab_words = Obs.Prof.Ptab.words_for ~capacity:ptab_capacity

(* The metrics time-series black box closes the metadata tail: three
   multi-resolution sample rings plus their series-name table, geometry
   fixed inside Obs.Tsdb so the carve-out can never drift from the
   writer.  Its arrival is the v2 -> v3 layout bump. *)
let tsdb_base = ptab_base + ptab_words
let tsdb_words = Obs.Tsdb.words_for ()
let meta_words = tsdb_base + tsdb_words
let magic_value = 0x52414C4C4F43 (* "RALLOC" *)
let sb_size_word = 0
let sb_used_word = 1
let sb_first_offset = superblock_bytes
let superblock_offset i = sb_first_offset + (i * superblock_bytes)

let descriptor_of_offset off =
  (off - sb_first_offset) / superblock_bytes

let d_anchor = 0
let d_class = 1
let d_bsize = 2
let d_next_free = 3
let d_next_partial = 4
let desc_word i field = (i * descriptor_words) + field

module Head = struct
  (* count(32) | desc_index+1 (30); 0 = empty list with count 0 *)
  let empty = 0
  let index_bits = 30
  let index_mask = (1 lsl index_bits) - 1

  let pack ~count ~desc =
    assert (desc >= -1 && desc < index_mask - 1);
    ((count land 0xFFFFFFFF) lsl index_bits) lor (desc + 1)

  let unpack w = ((w lsr index_bits) land 0xFFFFFFFF, (w land index_mask) - 1)
end
