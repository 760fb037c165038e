(** Checksummed persistent rings: the one crash-surviving record protocol
    under every black box in the metadata tail — the flight recorder
    ({!Obs.Flight}), the provenance ring ({!Obs.Prof.Ring}), the site
    table ({!Obs.Prof.Ptab}) and the metrics time series ({!Obs.Tsdb}).
    Those modules are thin typed views: they give payload words a
    meaning and own their fences; this module owns slot addresses, the
    checksum, torn-record detection and the head rebuild.

    A ring is [capacity] slots of [lines] cache lines each, at a
    line-aligned [base] inside a window of simulated NVM.  A record is

    {v [seq | payload 0 .. payload (n-1) | checksum]    n = lines*8 - 2 v}

    with seq starting at 1 (0 = never written) and the checksum a nonzero
    62-bit hash of seq and every payload word, stored last.  The
    simulated NVM never tears within a line, so a slot is either the
    complete old record, the complete new one, or a mix whose checksum
    cannot match: a torn record is always detected and never misparsed.
    The head cursor is volatile and rebuilt at {!attach} as
    [max (valid seq) + 1], so sequence numbers stay monotonic across
    crashes without ever flushing a cursor that would race the records
    it counts. *)

type backend = {
  words : int;  (** window size in words *)
  load : int -> int;  (** read the word at a window-relative index *)
  store : int -> int -> unit;
  fetch_add : int -> int -> int;
  flush : int -> unit;  (** write back the line containing the word *)
  fence : unit -> unit;
}
(** How a ring reaches its NVM window.  All indices are words relative
    to the window start, which must be cache-line aligned.  lib/pmem
    depends on lib/obs, so [Pmem.window] builds this record, routing
    flushes and fences through the write-combining pipeline. *)

(** {1 Header line}

    Every window starts with one header line: a magic word, then up to
    seven geometry words. *)

val stamp : backend -> magic:int -> int array -> unit
(** [stamp b ~magic geometry] writes the header line (not flushed:
    heap formatting ends in a full flush). *)

val stamped : backend -> magic:int -> int -> int array option
(** [stamped b ~magic n] reads back [n] geometry words, or [None] if the
    window is shorter than a line or does not start with [magic]. *)

val zero : backend -> base:int -> words:int -> unit
(** Zero [words] words from [base] (for a view's own fields, e.g.
    counters). *)

(** {1 Rings} *)

type t
(** A ring over a window. *)

val words_for : lines:int -> capacity:int -> int
(** Window words taken by [capacity] records of [lines] lines. *)

val format : backend -> base:int -> lines:int -> capacity:int -> t
(** Zero the slots and return an empty ring (head 1).  Durability is
    the caller's concern.
    @raise Invalid_argument if [lines] is outside 1..8, [capacity] is
    not positive, [base] is not line-aligned or the slots overrun the
    window. *)

val attach : backend -> base:int -> lines:int -> capacity:int -> t
(** Re-attach to formatted slots, rebuilding the head as
    [max (valid seq) + 1].  Raises like {!format}. *)

val capacity : t -> int
(** Record slots. *)

val payload_words : t -> int
(** Payload words per record: [lines * 8 - 2]. *)

val scratch : unit -> int array
(** The calling domain's compose buffer, at least {!payload_words} long
    for any ring.  Fill payload word [i] at index [i], then {!append}.
    It is per-domain, so concurrent writers never share one, and reused,
    so the write path allocates nothing. *)

val append : t -> int array -> unit
(** [append t p] claims the next seq with one atomic fetch-and-add,
    stores seq, the first {!payload_words} words of [p] and the
    checksum (last), and flushes every line of the record.  It does
    {b not} fence: the caller owns the fence, and the record is durable
    once the caller's next fence returns.  Allocation-free. *)

val fold : t -> ('a -> seq:int -> int array -> 'a) -> 'a -> 'a
(** Fold over every complete (checksum-valid) record, oldest first,
    with its seq and a fresh copy of its payload.  Torn slots are
    skipped. *)

val torn_slots : t -> int
(** Slots holding a started-but-incomplete record (nonzero seq, bad
    checksum). *)

val total : t -> int
(** Seqs handed out so far; after {!attach}, the newest durable seq. *)

(** {1 Name tables}

    A fixed-capacity array of one-line records indexed by id, each up to
    {!Names.max_name} bytes.  The length word is stored last within the
    record's single line, so a spontaneous eviction that persists the
    line mid-write reads back as an empty slot, never a torn name. *)

module Names : sig
  type t
  (** A name table over a window. *)

  val max_name : int
  (** Longest persistable name in bytes (49; longer names truncate). *)

  val words_for : capacity:int -> int
  (** Window words taken by [capacity] records. *)

  val format : backend -> base:int -> capacity:int -> t
  (** Zero the records; durability is the caller's concern.
      @raise Invalid_argument if the table does not fit the window. *)

  val attach : backend -> base:int -> capacity:int -> t
  (** Re-attach to a formatted table.  Raises like {!format}. *)

  val capacity : t -> int
  (** Record slots (ids at or above this are not persisted). *)

  val persist : t -> int -> string -> unit
  (** [persist t id name] durably writes record [id]: 1 flush + 1 fence.
      Out-of-range ids are skipped. *)

  val name : t -> int -> string option
  (** The persisted name of [id], [None] for empty or torn slots. *)

  val count : t -> int
  (** Number of non-empty records. *)
end
