(** Persistent heap layout (paper §4.2, Figure 2).

    A heap comprises three contiguous regions, each mapped independently:

    - the {b superblock region} — [size] and [used] header words followed by
      an array of 64 KB superblocks holding the actual data;
    - the {b descriptor region} — one 64 B descriptor per superblock;
      descriptor [i] describes superblock [i], so either can be found from
      the other with bit manipulation;
    - the {b metadata region} — dirty indicator, persistent roots, size
      class records (block size + partial list head) and the superblock
      free list head.

    Fields persisted (flushed + fenced) online, the paper's bold fields:
    the dirty indicator, the superblock region's [size] and [used] words,
    each descriptor's size class and block size, and the roots. *)

val superblock_bytes : int
(** Superblock size in bytes (64 KB, paper §4.2). *)

val superblock_words : int
(** Superblock size in 8-byte words. *)

val descriptor_words : int
(** Words per descriptor (8 = one cache line). *)

val max_roots : int
(** Number of persistent root slots in the metadata region. *)

(** {1 Metadata region word offsets} *)

val meta_magic : int
(** Word holding {!magic_value} once the heap is formatted. *)

val meta_dirty : int
(** The dirty indicator: nonzero while a process has the heap open. *)

val meta_heap_size : int
(** Word recording the heap's data-region size in bytes. *)

val meta_heap_id : int
(** Word holding the random heap id stamped at format time. *)

val meta_layout_version : int
(** Word holding the metadata layout version the heap was formatted
    with.  Images formatted before the word existed read 0. *)

val layout_version : int
(** The layout version this build writes and requires (4: every ring
    in the carve-outs is an {!Obs.Pring}, with one record format and
    one checksum; 3 added the metrics time-series black box carve-out;
    2 the provenance-ring and site-table carve-outs).  Attach refuses
    images stamped with any other version instead of misreading
    offsets. *)

val meta_free_list_head : int
(** Word holding the counted head of the superblock free list. *)

val meta_root : int -> int
(** [meta_root i] for [0 <= i < max_roots]. *)

val meta_class_block_size : int -> int
(** Size-class record, one cache line per class [1..Size_class.count]. *)

val meta_class_partial_head : int -> int
(** Counted head of class [c]'s partial-superblock list, one word after
    its block-size word. *)

val flight_base : int
(** First word of the flight-recorder window: a reserved, line-aligned
    carve-out at the tail of the metadata region holding the persistent
    event ring (see {!Obs.Flight}). *)

val flight_capacity : int
(** Ring capacity in events (256; each event is one cache line). *)

val flight_words : int
(** Window size, [Obs.Flight.words_for ~capacity:flight_capacity]. *)

val prov_base : int
(** First word of the provenance-ring window (sampled allocations and
    their frees, see {!Obs.Prof.Ring}), directly after the flight ring. *)

val prov_capacity : int
(** Provenance ring capacity in entries (1024, one cache line each). *)

val prov_words : int
(** Window size, [Obs.Prof.Ring.words_for ~capacity:prov_capacity]. *)

val ptab_base : int
(** First word of the persistent site-name table window (see
    {!Obs.Prof.Ptab}), directly after the provenance ring. *)

val ptab_capacity : int
(** Site-name slots (128; sites with higher ids are not persisted). *)

val ptab_words : int
(** Window size, [Obs.Prof.Ptab.words_for ~capacity:ptab_capacity]. *)

val tsdb_base : int
(** First word of the metrics time-series black box window (see
    {!Obs.Tsdb}), directly after the site-name table — the carve-out
    that bumped the layout to v3. *)

val tsdb_words : int
(** Window size, [Obs.Tsdb.words_for ()] — the geometry is fixed inside
    Obs.Tsdb, so the carve-out can never drift from the writer. *)

val meta_words : int
(** Total size of the metadata region in words, carve-outs included. *)

val magic_value : int
(** The formatted-heap magic ("RALLOC" in ASCII). *)

(** {1 Superblock region} *)

val sb_size_word : int
(** Word holding the superblock region's [size] header field. *)

val sb_used_word : int
(** Word holding the superblock region's [used] header field. *)

val sb_first_offset : int
(** Byte offset of superblock 0 within the region (one whole superblock of
    header/padding, so superblock boundaries stay 64 KB-aligned). *)

val superblock_offset : int -> int
(** Byte offset of superblock [i]. *)

val descriptor_of_offset : int -> int
(** Superblock (= descriptor) index owning the given byte offset within the
    superblock region. *)

(** {1 Descriptor fields (word offsets within the descriptor region)} *)

val d_anchor : int
(** The descriptor's anchor word (avail | count | state, paper Fig. 3). *)

val d_class : int
(** The descriptor's size-class word (persisted online). *)

val d_bsize : int
(** The descriptor's block-size word (persisted online). *)

val d_next_free : int
(** Link word threading the superblock free list. *)

val d_next_partial : int
(** Link word threading the class partial list. *)

val desc_word : int -> int -> int
(** [desc_word i field] is the word index of [field] of descriptor [i]. *)

(** {1 Counted list heads (anti-ABA, paper §4.2)} *)

module Head : sig
  val empty : int
  (** The packed empty list (count 0, no descriptor). *)

  val pack : count:int -> desc:int -> int
  (** [desc] is a descriptor index, or [-1] for the empty list. *)

  val unpack : int -> int * int
  (** [(count, desc)] with [desc = -1] for empty. *)
end
