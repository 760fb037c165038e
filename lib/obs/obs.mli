(** Telemetry for the allocator stack: metrics, latency histograms, and
    event tracing.

    Three instruments, one registry:

    - {b counters / gauges} — monotonic event counts and last-value
      gauges, sharded by domain id so concurrent hot paths do not contend
      on a single cache line; shards are summed on read;
    - {b histograms} — log-bucketed (HDR-style) latency distributions
      with fixed memory, mergeable snapshots, and p50/p90/p99/max
      quantile queries;
    - {b traces} — a bounded per-shard ring buffer of timestamped events
      (drop-oldest), exportable as Chrome [trace_event] JSON for
      [chrome://tracing] / Perfetto, or as readable text.

    Everything is gated on runtime flags ({!set_enabled},
    {!Trace.set_enabled}).  When disabled, every recording operation is a
    flag test and an immediate return, so instrumentation can stay in the
    hottest paths of the allocator; call sites that must also pay for a
    clock read guard themselves with {!on}.

    Metrics are process-global: instrumented libraries create them at
    module initialization and the registry aggregates across all heaps
    and domains.  {!dump} prints every registered metric. *)

val now_ns : unit -> int
(** Monotonic clock, nanoseconds (CLOCK_MONOTONIC; does not allocate). *)

val set_enabled : bool -> unit
(** Turn metric recording on or off (off by default).  Disabling does not
    clear already-recorded values; see {!reset}.

    If the environment variable [OBS_DISABLED] is set (to anything but
    [""] or ["0"]), every enable toggle in this library — this one,
    {!Trace.set_enabled}, {!Span.set_enabled}, {!Flight.set_enabled} and
    {!Prof.set_enabled} — becomes a no-op, so
    all instrumentation stays hard-off regardless of what the program
    asks for.  The environment is consulted at toggle time only; the
    recording hot paths still test a single plain flag. *)

val enabled : unit -> bool
(** Whether metric recording is currently on. *)

val on : unit -> bool
(** Alias of {!enabled} for hot call sites:
    [if Obs.on () then <record with timestamps>]. *)

(** {1 Counters} *)

module Counter : sig
  type t

  val make : string -> t
  (** [make name] creates and registers the counter, or returns the
      existing counter of that name.
      @raise Invalid_argument if [name] is registered as another kind. *)

  val incr : t -> unit
  (** Add one.  No-op while recording is disabled. *)

  val add : t -> int -> unit
  (** Add an arbitrary amount.  No-op while recording is disabled. *)

  val read : t -> int
  (** Sum over all shards. *)

  val reset : t -> unit
  (** Zero every shard. *)

  val name : t -> string
  (** The name the counter was registered under. *)
end

(** {1 Gauges} *)

module Gauge : sig
  type t

  val make : string -> t
  (** [make name] creates and registers the gauge, or returns the
      existing gauge of that name.
      @raise Invalid_argument if [name] is registered as another kind. *)

  val set : t -> int -> unit
  (** No-op while recording is disabled. *)

  val add : t -> int -> unit
  (** Adjust by a (possibly negative) delta.  No-op while disabled. *)

  val read : t -> int
  (** Current value (shard-summed). *)

  val reset : t -> unit
  (** Zero the gauge. *)

  val name : t -> string
  (** The name the gauge was registered under. *)
end

(** {1 Histograms}

    Values (intended unit: nanoseconds) are binned into log-linear
    buckets: 16 sub-buckets per power of two, so any quantile estimate is
    within 1/16 (6.25%) of the true value; values at or above 2{^31} land
    in one overflow bucket.  Fixed memory per histogram, regardless of
    how many values are recorded. *)

module Histogram : sig
  type t

  val make : string -> t
  (** [make name] creates and registers the histogram, or returns the
      existing histogram of that name.
      @raise Invalid_argument if [name] is registered as another kind. *)

  val record : t -> int -> unit
  (** [record h v] adds observation [v] (clamped to [0, 2{^31}]).  No-op
      while recording is disabled. *)

  val count : t -> int
  (** Number of observations recorded so far. *)

  val quantile : t -> float -> int
  (** [quantile h q] for [q] in [0,1]: an upper bound of the [q]-quantile
      of everything recorded so far (0 if nothing was). *)

  val max_value : t -> int
  (** Largest value recorded, exactly (not bucket-rounded). *)

  val mean : t -> float
  (** Arithmetic mean of everything recorded ([0.] if nothing was). *)

  (** A summed, immutable copy of the bucket state — the merge of every
      domain's shard.  Snapshots of the same histogram can be subtracted
      to get distribution-valued deltas for a timed window. *)
  type snap

  val snapshot : t -> snap
  (** Capture the current merged bucket state. *)

  val diff : snap -> snap -> snap
  (** [diff after before].  [max]/[mean] of a diff refer to the [after]
      snapshot's whole history, counts and quantiles to the window. *)

  val snap_count : snap -> int
  (** Observations in the snapshot (or window, for a {!diff}). *)

  val snap_quantile : snap -> float -> int
  (** Quantile over the snapshot, as {!quantile} over a live histogram. *)

  val reset : t -> unit
  (** Zero every bucket in every shard. *)

  val name : t -> string
  (** The name the histogram was registered under. *)
end

val register_derived : string -> (unit -> float) -> unit
(** Register a computed read-only metric (e.g. a hit ratio) that {!dump}
    evaluates at print time.  Re-registering a name replaces it. *)

(** {1 Event tracing} *)

module Trace : sig
  val set_enabled : bool -> unit
  (** Off by default.  Independent of the metrics flag. *)

  val enabled : unit -> bool
  (** Whether event tracing is currently on. *)

  val set_capacity : int -> unit
  (** Events retained per shard (rounded up to a power of two, default
      4096); older events are overwritten.  Clears any buffered events. *)

  val begin_span : unit -> int
  (** Start timestamp for {!span}; 0 when tracing is disabled (and
      {!span} then ignores the event). *)

  val span : string -> int -> unit
  (** [span name t0] records a duration event from [t0] (a {!begin_span}
      result) to now, attributed to the calling domain. *)

  val complete : ?tid:int -> string -> ts_ns:int -> dur_ns:int -> unit
  (** Record a duration event with an explicit start and duration.  [tid]
      overrides the thread-track id (default: the calling domain id) —
      request tracing uses synthetic per-request lanes so that spans of
      overlapping pipelined requests stay properly nested per track. *)

  val instant : string -> unit
  (** Record a point event at the current time. *)

  val counter : string -> int -> unit
  (** Record a Chrome counter sample ([ph:"C"]): a named value at the
      current time, rendered as a value track in the trace viewer.
      Negative values are clamped to 0. *)

  val clear : unit -> unit
  (** Drop every buffered event on every shard. *)

  val write_chrome_trace : string -> unit
  (** Write every buffered event to a file as Chrome [trace_event] JSON
      ([{"traceEvents": [...]}]) — loadable in [chrome://tracing] and
      Perfetto.  Events are sorted by (domain, timestamp); the domain id
      is the [tid]. *)

  val pp_text : Format.formatter -> unit
  (** Human-readable dump of the buffered events, in the same order. *)
end

(** {1 Spans}

    Request-stage timing built on the registry and the trace ring.  A
    {e stage} is an interned identifier owning one latency histogram
    (registered as ["span.<name>_ns"]); recording into it is two array
    loads plus a histogram record — the registry is consulted only at
    {!Span.stage} time.  Two usage styles:

    - {b flat} ({!Span.begin_} / {!Span.end_}): the token is just the
      start timestamp, for straight-line hot paths;
    - {b nested} ({!Span.enter} / {!Span.leave} / {!Span.with_stage}): a
      fixed-size per-domain frame stack gives parent linkage and, when
      {!Trace} is also enabled, emits duration events that nest under
      enclosing spans on the same domain track.

    Deep layers that cannot see the request they are serving (the
    allocator, the flush pipeline) report through the ambient {e sink}: a
    per-domain [int array] of nanosecond accumulators indexed by channel
    ({!Span.ch_alloc}, {!Span.ch_persist}, {!Span.ch_fence}).  A request
    pipeline points the sink at the request's own accumulator array for
    the duration of its service ({!Span.sink_set} / {!Span.sink_clear});
    while no sink is set, adds land in a per-domain scratch array, so
    {!Span.sink_add} is branch-free and never observable outside a
    window.

    Overhead contract: everything is gated on an independent flag
    ({!Span.set_enabled}, forced off under [OBS_DISABLED]); while
    disabled, every operation is a flag test, no clock is read, no
    histogram is touched, and nothing allocates.  While enabled, the
    per-span cost is two clock reads and one histogram record — no
    allocation, no flushes, no fences. *)

module Span : sig
  val set_enabled : bool -> unit
  (** Independent of the metrics and trace flags; off by default and
      forced off under [OBS_DISABLED].  Note that span {e histograms} are
      ordinary registry histograms, so quantiles accumulate only while
      the metrics flag ({!val:set_enabled}) is also on. *)

  val enabled : unit -> bool
  (** Whether span timing is currently on. *)

  val on : unit -> bool
  (** Alias of {!enabled} for hot call sites. *)

  type stage
  (** An interned stage identifier; cheap to store and compare. *)

  val stage : string -> stage
  (** Intern [name], creating (or reusing) its ["span.<name>_ns"]
      histogram.  Call at module initialization, not on hot paths.
      @raise Invalid_argument past 256 distinct stages. *)

  val stage_name : stage -> string
  (** The name the stage was interned under ([""] if invalid). *)

  val record : stage -> int -> unit
  (** [record st dur_ns] adds one observation to the stage histogram (and
      nothing else).  No-op while spans are disabled. *)

  val stage_count : stage -> int
  (** Observations recorded into the stage histogram so far. *)

  val stage_quantile : stage -> float -> int
  (** Quantile of the stage histogram (see {!Histogram.quantile}). *)

  val begin_ : unit -> int
  (** Start a flat span: the monotonic timestamp, or 0 while disabled
      (in which case the matching {!end_} drops the span). *)

  val end_ : stage -> int -> unit
  (** [end_ st t0] records now[-t0] into [st] and, when tracing is on,
      emits the span to the trace ring on the calling domain's track. *)

  val enter : stage -> unit
  (** Push a nested span frame on the calling domain's stack.  Frames
      beyond depth 32 are counted but not timed. *)

  val leave : stage -> unit
  (** Pop the innermost frame: record its duration under the stage it was
      {e entered} with (the argument is documentation; mismatched pairs
      stay well-nested) and emit it to the trace ring when tracing is on.
      No-op on an empty stack. *)

  val with_stage : stage -> (unit -> 'a) -> 'a
  (** [with_stage st f] = {!enter}, [f ()], {!leave} — exception-safe. *)

  val depth : unit -> int
  (** Current nesting depth on the calling domain (0 outside spans). *)

  val current : unit -> stage option
  (** The innermost open stage on the calling domain — the parent that a
      new {!enter} would link under. *)

  val channels : int
  (** Number of sink channels; accumulator arrays must be at least this
      long. *)

  val ch_alloc : int
  (** Sink channel: nanoseconds inside [Ralloc.malloc]/[free], net of
      time the allocator itself spent issuing flushes and fences. *)

  val ch_persist : int
  (** Sink channel: nanoseconds issuing flushes and draining fences in
      [Pmem] (ordering fences included, group-commit drains excluded —
      those are attributed by the server at commit time). *)

  val ch_fence : int
  (** Sink channel reserved for the request's amortized share of its
      group-commit fence drain; written by the batching server, not by
      {!sink_add} from below. *)

  val sink_set : int array -> unit
  (** Route the calling domain's {!sink_add}s into the given array
      (accumulate-in-place at the channel index).
      @raise Invalid_argument if shorter than {!channels}. *)

  val sink_clear : unit -> unit
  (** Restore the calling domain's sink to its scratch array. *)

  val sink_add : int -> int -> unit
  (** [sink_add ch d] adds [d] to channel [ch] of the current sink.
      Branch-free: while no sink is set, the add lands in a per-domain
      scratch array and is never observed. *)

  val sink_get : int -> int
  (** Read a channel of the current sink (used to net out nested
      contributions, e.g. allocator time minus its own flush time). *)
end

(** {1 Persistent rings}

    The checksummed persistent-ring primitive that the flight recorder,
    the provenance ring, the site table and the metrics black box are
    views over.  See {!Pring}. *)

module Pring = Pring

(** {1 Persistent flight recorder}

    A fixed-size ring of allocator lifecycle events living in simulated
    NVM, written with flush/fence discipline so that after a crash the
    last N events survive in the heap image and explain how the heap got
    into its state — PR 1's volatile telemetry vanishes at exactly the
    moment it is most useful, this does not.

    The ring is position-independent: entries carry sequence numbers,
    event kinds and region {e offsets}, never virtual addresses, so an
    image can be inspected by a process that never maps the heap at the
    original address (see [bin/rstat]).  It is a one-line {!Pring}
    behind a header of persistent per-kind counters. *)

module Flight : sig
  (** Event kind codes stored in entries (all < 16).  {!Kind.name} maps a
      code back to a label for display. *)
  module Kind : sig
    val malloc : int
    (** A block was allocated ([a]=size class, [b]=block offset). *)

    val free : int
    (** A block was freed ([a]=size class, [b]=block offset). *)

    val sb_provision : int
    (** A fresh superblock was carved from the region tail. *)

    val sb_acquire : int
    (** A partial superblock was adopted from the global heap. *)

    val sb_retire : int
    (** A superblock was returned to the global heap. *)

    val txn_commit : int
    (** A server write batch committed. *)

    val txn_abort : int
    (** A server write batch aborted. *)

    val recovery_begin : int
    (** Post-crash recovery started. *)

    val recovery_trace : int
    (** A recovery garbage-collection pass progressed ([a]=phase). *)

    val recovery_done : int
    (** Recovery finished; the heap is consistent again. *)

    val heap_open : int
    (** The heap was created or attached. *)

    val heap_close : int
    (** The heap was detached cleanly. *)

    val root_set : int
    (** A persistent root slot was updated. *)

    val slow_op : int
    (** An operation exceeded its latency budget ([a]=duration class). *)

    val slo_breach : int
    (** An SLO watchdog rule fired ([a]=rule index, [b]=observed value,
        [c]=threshold, in the rule's own unit). *)

    val name : int -> string
    (** Label for a kind code (["?"] for unknown codes). *)
  end

  type t
  (** An attached recorder: a window plus its decoded geometry. *)

  val set_enabled : bool -> unit
  (** Master switch, off by default (and forced off under [OBS_DISABLED],
      see {!val:set_enabled}).  While off, {!record} returns immediately:
      no NVM traffic, no flushes, no fences — a true no-op. *)

  val enabled : unit -> bool
  (** Whether flight recording is currently on. *)

  val words_for : capacity:int -> int
  (** Window size in words needed for a ring of [capacity] entries: the
      3-line header plus one 64-byte line per entry. *)

  val format : Pring.backend -> capacity:int -> t
  (** Initialize a fresh ring in the window: magic, capacity, zeroed
      event counters and slots.  Durability is the caller's concern
      (heap formatting ends in a full flush).
      @raise Invalid_argument if the window is too small. *)

  val attach : Pring.backend -> t option
  (** Re-attach to a previously formatted ring, e.g. in a recovered or
      offline-inspected image, rebuilding the volatile head cursor (see
      {!Pring.attach}).  [None] if the window does not hold a valid
      ring. *)

  val capacity : t -> int
  (** Number of entry slots in the attached ring. *)

  val record : t -> kind:int -> ?a:int -> ?b:int -> ?c:int -> unit -> unit
  (** Append one event: {!Pring.append} the entry (one line flush),
      bump and flush the persistent per-kind counter, fence.  Exactly 2
      flushes and 1 fence per event — identical in [Pipelined] and
      [Synchronous] pmem modes — and exactly 0 of each while disabled.
      When [record] returns, the event is durable: it will appear in
      {!tail} after any crash.  Arguments [a]/[b]/[c] are kind-specific
      payloads (size classes, block offsets, counts — offsets only,
      never addresses). *)

  type event = {
    seq : int;  (** 1-based, monotonic across the ring's whole life *)
    kind : int;
    a : int;
    arg_b : int;
    c : int;
    ts_ns : int;  (** {!now_ns} at record time *)
  }

  val tail : ?limit:int -> t -> event list
  (** The complete (checksum-valid) entries currently in the ring, oldest
      first — at most [capacity], or the newest [limit] if given.  A slot
      whose line reached the persistent view mid-composition (possible
      only via spontaneous eviction; {!record} itself fences) fails its
      checksum and is skipped, never misparsed. *)

  val torn_slots : t -> int
  (** Number of slots holding a started-but-incomplete entry (nonzero
      seq, bad checksum). *)

  val kind_count : t -> int -> int
  (** Persistent lifetime count of events of the given kind — survives
      ring wrap-around (each {!record} bumps it durably). *)

  val total_recorded : t -> int
  (** Sequence numbers handed out so far (volatile cursor; after
      {!attach} this is the durable event count). *)

  val pp_event : Format.formatter -> event -> unit
  (** Print one event as [seq kind(a,b,c) @ts]. *)

  val pp_tail : ?limit:int -> Format.formatter -> t -> unit
  (** Print the tail, one event per line, noting torn slots if any. *)
end

(** {1 Heap provenance profiler}

    A jemalloc-style byte-triggered sampling heap profiler.  Every domain
    keeps a countdown of bytes-to-next-sample; each allocation decrements
    it by its size and the allocation that drives it through zero is
    sampled, attributed to the calling domain's ambient {e allocation
    site} (an interned name, same discipline as [Pmem.Check.site]), and
    scaled: a sampled block of [s] bytes at rate [r] stands in for
    [max(s, r)] estimated bytes and [max(1, r/s)] estimated blocks, so
    the per-site live/cumulative tallies are unbiased estimates of the
    true census.  Frees of sampled blocks cancel their samples.

    Attribution survives crashes: sampled allocations and their frees are
    also written to a persistent {e provenance ring} ({!Prof.Ring}, the
    flight recorder's checksummed entry protocol over its own
    metadata-region window) and site names to a persistent interned table
    ({!Prof.Ptab}), so an offline inspector ([rstat --prof]) can replay
    which sites allocated the blocks that survived a [kill -9].

    Cost contract: disabled (default, and forced off under
    [OBS_DISABLED]), every hook is one plain-ref flag test — no NVM
    traffic, no flushes, no fences, no allocation.  Enabled, the malloc
    path pays one per-domain countdown decrement and the free path one
    atomic bitmap probe; ring writes happen only on the sampled path. *)

module Prof : sig
  val set_enabled : bool -> unit
  (** Master switch, off by default; independent of every other obs flag
      and forced off under [OBS_DISABLED]. *)

  val enabled : unit -> bool
  (** Whether profiling is currently on. *)

  val on : unit -> bool
  (** Alias of {!enabled} for hot call sites. *)

  val default_rate : int
  (** The default sampling rate: one sample per 512 KiB allocated. *)

  val set_rate : int -> unit
  (** Set the sampling rate in bytes (clamped to at least 1).  Takes
      effect at each domain's next countdown reset. *)

  val rate : unit -> int
  (** The current sampling rate in bytes. *)

  (** {2 Allocation sites} *)

  val site : string -> int
  (** [site "store.iset"] interns a site name to a dense id.  Cheap but
      lock-taking: call at module or heap init, not on hot paths. *)

  val unattributed : int
  (** The reserved site id 0, ["(unattributed)"] — the ambient site of a
      domain that never called {!set_site}. *)

  val site_name : int -> string
  (** The name a site id was interned under (["(unknown)"] if invalid). *)

  val site_count : unit -> int
  (** Number of interned sites so far. *)

  val set_site : int -> unit
  (** Make a site the calling domain's ambient owner: subsequent sampled
      allocations on this domain are attributed to it until the next
      [set_site].  A no-op while the profiler is disabled. *)

  val current_site : unit -> int
  (** The calling domain's ambient site (0 = unattributed). *)

  val ambient_slot : unit -> int ref
  (** The calling domain's ambient-site cell — the ref {!set_site}
      writes and {!current_site} reads.  For wrappers that install a
      default site around every allocation (alloc_iface): read,
      conditionally overwrite, restore, all on one DLS fetch.  Treat the
      ref as domain-local scratch; never share it across domains. *)

  val with_site : int -> (unit -> 'a) -> 'a
  (** Run a thunk with the ambient site set, restoring the previous owner
      afterwards.  Calls the thunk directly when disabled. *)

  (** {2 Sampling hooks (called by the allocator)} *)

  val should_sample : int -> bool
  (** [should_sample size] decrements the calling domain's countdown by
      [size] bytes; [true] when this allocation triggered a sample (the
      countdown then resets to the rate).  Call only while {!on}. *)

  val generation : unit -> int
  (** The budget generation.  An allocator that keeps its byte countdown
      in per-domain state it already fetches (saving this module's DLS
      lookup) must revalidate that cache whenever the generation moves:
      it is bumped by {!set_rate}, {!set_enabled} and {!reset}, and a
      stale cache should restart from a zero budget (sample at once). *)

  val sample_alloc : key:int -> site:int -> size:int -> unit
  (** Record a sampled allocation: [key] identifies the block (the caller
      mixes its heap id into the offset so two heaps cannot collide),
      [site] owns it, [size] is the block size the scaled weights derive
      from. *)

  val note_free : key:int -> int option
  (** The free-path hook: if [key] was sampled, cancel its live tallies
      and return its owning site (so the caller can write the provenance
      free entry); [None] otherwise.  The common miss case is one atomic
      bitmap probe. *)

  (** {2 Tallies} *)

  type site_stat = {
    s_site : int;  (** interned site id *)
    s_name : string;  (** its name *)
    s_live_blocks : int;  (** estimated blocks currently live *)
    s_live_bytes : int;  (** estimated bytes currently live *)
    s_cum_blocks : int;  (** estimated blocks ever allocated *)
    s_cum_bytes : int;  (** estimated bytes ever allocated *)
  }
  (** One site's scaled estimates. *)

  val stats : unit -> site_stat list
  (** Per-site estimates, largest live-bytes first. *)

  val live_bytes : unit -> int
  (** Total estimated live bytes across all sites. *)

  val live_blocks : unit -> int
  (** Total estimated live blocks across all sites. *)

  val samples : unit -> int
  (** Number of allocations sampled so far. *)

  val reset : unit -> unit
  (** Drop all tallies, samples and the calling domain's countdown.
      Interned sites survive. *)

  (** {2 Exports} *)

  val report : Format.formatter -> unit
  (** Human-readable per-site table of the scaled estimates. *)

  val collapsed : Buffer.t -> unit
  (** Collapsed-stack lines ([heap;<site> <live_bytes>]), one frame deep,
      feedable to any flamegraph tool. *)

  val speedscope : Buffer.t -> unit
  (** A speedscope JSON profile ([type:"sampled"], unit bytes): one frame
      per site weighted by estimated live bytes. *)

  val prometheus : Format.formatter -> unit
  (** Prometheus exposition of the profile: [prof_live_bytes{site=}],
      [prof_live_blocks{site=}], [prof_cum_*_total{site=}],
      [prof_samples_total] and [prof_sample_rate_bytes].  Also appended
      to {!val:prometheus} whenever the profiler is enabled or holds
      samples. *)

  (** {2 Persistent provenance ring}

      The crash-surviving record of sampled allocations and frees: the
      flight recorder's one-line checksummed entry protocol (2 flushes +
      1 fence per entry, torn tails detected, head cursor rebuilt at
      attach) over its own reserved window, with (site, size, offset)
      payloads.  Recording is {e not} gated on {!Flight.set_enabled} —
      the allocator gates on {!on} instead. *)

  module Ring : sig
    type t
    (** An attached provenance ring. *)

    val words_for : capacity:int -> int
    (** Window words needed for [capacity] entries (see
        {!Flight.words_for}). *)

    val format : Pring.backend -> capacity:int -> t
    (** Initialize a fresh ring in the window; durability is the caller's
        concern.  @raise Invalid_argument if the window is too small. *)

    val attach : Pring.backend -> t option
    (** Re-attach to a formatted ring, rebuilding the head cursor;
        [None] if the window holds no valid ring. *)

    val capacity : t -> int
    (** Entry slots in the ring. *)

    val record_alloc : t -> site:int -> size:int -> off:int -> unit
    (** Durably append a sampled-allocation entry (2 flushes + 1 fence).
        Unconditional: the caller gates on {!on}. *)

    val record_free : t -> site:int -> size:int -> off:int -> unit
    (** Durably append the free of a sampled block. *)

    type entry = {
      pseq : int;  (** monotonic sequence number *)
      is_alloc : bool;  (** allocation or free *)
      psite : int;  (** interned site id *)
      psize : int;  (** block size in bytes *)
      poff : int;  (** block offset in the superblock region *)
    }
    (** One decoded provenance entry. *)

    val entries : t -> entry list
    (** Every complete entry in the ring, oldest first. *)

    val live : t -> entry list
    (** Replay the window: sampled allocations not cancelled by a later
        free of the same offset — the sampled blocks live at the crash,
        as far as the surviving window can tell. *)

    val torn_slots : t -> int
    (** Slots holding a started-but-incomplete entry. *)

    val total_recorded : t -> int
    (** Sequence numbers handed out over the ring's life. *)

    val alloc_count : t -> int
    (** Durable lifetime count of allocation entries (survives wrap). *)

    val free_count : t -> int
    (** Durable lifetime count of free entries. *)
  end

  (** {2 Persistent site-name table}

      A header line plus a {!Pring.Names} table indexed by site id,
      written durably the first time a site is sampled on a heap, so ring
      entries resolve to names offline. *)

  module Ptab : sig
    type t
    (** An attached site-name table. *)

    val max_name : int
    (** Longest persistable name in bytes (longer names truncate). *)

    val words_for : capacity:int -> int
    (** Window words needed for [capacity] site records. *)

    val format : Pring.backend -> capacity:int -> t
    (** Initialize an empty table in the window; durability is the
        caller's concern.  @raise Invalid_argument if it does not fit. *)

    val attach : Pring.backend -> t option
    (** Re-attach to a formatted table; [None] if the window holds no
        valid one. *)

    val capacity : t -> int
    (** Site-record slots (ids at or above this are not persisted). *)

    val persist : t -> int -> string -> unit
    (** [persist t id name] durably writes the record for site [id]
        (1 flush + 1 fence; out-of-range ids are skipped). *)

    val name : t -> int -> string option
    (** The persisted name of a site id, [None] for empty slots. *)

    val count : t -> int
    (** Number of non-empty records. *)
  end
end

(** {1 Persistent metrics time-series black box}

    An aircraft-style flight-data recorder for {e metrics}: a reserved
    NVM window holding three ring buffers of checksummed, fenced sample
    records at increasing aggregation — every sampler tick lands in the
    fine ring, every {!Tsdb.mid_ratio} ticks their {e sum} is appended
    to the mid ring, every {!Tsdb.coarse_ratio} ticks to the coarse
    ring — so a crashed image still holds a recent high-resolution
    timeline plus hours of coarse history.  Downsampling happens at
    write time and conserves sums (and therefore means, via the stored
    tick count), so recovery needs no replay: [rstat --timeline] just
    re-attaches the rings and reads.

    The window is a geometry header, a {!Pring.Names} table of series
    names and three 4-line {!Pring}s, so the durability discipline is
    the {!Flight} recorder's: records are position-independent, torn
    records are detected and dropped at attach, head cursors are
    volatile and rebuilt as max(valid seq) + 1, and each tick costs a
    bounded number of flushes plus exactly one fence — byte-identical in
    both pmem modes, and a true no-op while disabled. *)

module Tsdb : sig
  val max_series : int
  (** Series-id slots in the window (24); {!declare} beyond this count
      raises. *)

  val max_name : int
  (** Longest persistable series name in bytes (longer names
      truncate). *)

  val fine_capacity : int
  (** Fine-ring record slots — at a 1 s tick, the last ~5 minutes. *)

  val mid_capacity : int
  (** Mid-ring record slots — at a 1 s tick, ~1 hour of 10 s sums. *)

  val coarse_capacity : int
  (** Coarse-ring record slots — at a 1 s tick, ~4 hours of 60 s
      sums. *)

  val mid_ratio : int
  (** Fine ticks aggregated into one mid record (10). *)

  val coarse_ratio : int
  (** Fine ticks aggregated into one coarse record (60). *)

  val record_lines : int
  (** Cache lines per sample record — also the number of flushes each
      record's composition issues (the per-tick flush count is
      [record_lines] for the fine record plus [record_lines] more for
      each mid/coarse window the tick closes). *)

  val words_for : unit -> int
  (** Window size in words for the whole black box (header + name table
      + all three rings); the geometry is fixed at build time, so the
      metadata-region carve-out can never drift from the writer. *)

  type t
  (** An attached black box: a window plus its volatile cursors and
      downsampling accumulators. *)

  val set_enabled : bool -> unit
  (** Master switch, off by default and forced off under [OBS_DISABLED]
      (see {!val:set_enabled}).  While off, {!sample} and
      {!Sampler.tick} return immediately: no NVM traffic, no flushes,
      no fences, no accumulation. *)

  val enabled : unit -> bool
  (** Whether time-series recording is currently on. *)

  type ring = [ `Fine | `Mid | `Coarse ]
  (** The three resolutions, finest first. *)

  val format : Pring.backend -> t
  (** Initialize a fresh black box in the window: magic, geometry
      descriptor, zeroed name table and ring slots.  Durability is the
      caller's concern (heap formatting ends in a full flush).
      @raise Invalid_argument if the window is smaller than
      {!words_for}. *)

  val attach : Pring.backend -> t option
  (** Re-attach to a previously formatted black box, e.g. in a
      recovered or offline-inspected image: rebuilds the volatile series
      table from the persisted names and every ring's head cursor from
      the durable records (torn records — checksum mismatches — are
      dropped here, never misparsed).  Downsampling accumulators restart
      empty: up to one partial mid/coarse window is lost, but the fine
      ring still covers those ticks.  [None] if the window holds no
      valid black box or one of a different geometry. *)

  val declare : t -> string -> int
  (** [declare t name] interns a series name to a dense id, durably
      persisting the name record (1 flush + 1 fence, skipped while
      disabled) so offline readers can resolve it.  Idempotent per name.
      Call at sampler startup, not per tick.
      @raise Invalid_argument past {!max_series} distinct series. *)

  val series_count : t -> int
  (** Number of declared series. *)

  val series_name : t -> int -> string option
  (** The name a series id was declared under; [None] for undeclared ids
      (including ids whose name record was lost to a torn line). *)

  val series_index : t -> string -> int option
  (** The id a series name was declared under, if any. *)

  val sample : t -> ts_ns:int -> int array -> unit
  (** [sample t ~ts_ns values] appends one fine record ([values.(i)] is
      series [i]'s sample; missing trailing entries read as 0) and folds
      it into the mid/coarse accumulators, emitting their sum records
      when this tick closes a window.  Bounded flushes + exactly one
      fence per call; when it returns the fine record is durable.
      No-op while disabled. *)

  type point = {
    p_seq : int;  (** 1-based, monotonic over the ring's whole life *)
    p_ts_ns : int;  (** {!now_ns} of the window's last fine tick *)
    p_count : int;  (** fine ticks aggregated (1 in the fine ring) *)
    p_values : int array;
        (** per-series {e sums} of those ticks, length {!max_series} *)
  }
  (** One decoded sample record. *)

  val points : t -> ring -> point list
  (** Every complete (checksum-valid) record in a ring, oldest first. *)

  val series_points : t -> ring -> int -> (int * float) list
  (** One series' timeline in a ring, oldest first, as
      [(ts_ns, mean-per-tick)] — the stored sum divided by the stored
      count, so the same series plots on the same scale at every
      resolution. *)

  val series_stats : t -> ring -> int -> float * float
  (** Mean and standard deviation of one series' per-tick means over a
      whole ring ([0., 0.] for an empty series). *)

  val torn_slots : t -> int
  (** Slots across all three rings holding a started-but-incomplete
      record (nonzero seq, bad checksum). *)

  val total_samples : t -> int
  (** Fine-ring sequence numbers handed out so far (after {!attach},
      the durable fine-sample count). *)

  type anomaly = {
    an_series : int;  (** series id *)
    an_name : string;  (** its declared name *)
    an_last : float;  (** mean of the trailing window *)
    an_mean : float;  (** whole-ring mean *)
    an_sigma : float;  (** whole-ring standard deviation *)
  }
  (** One series flagged by {!anomalies}. *)

  val anomalies : ?k:float -> ?window:int -> t -> anomaly list
  (** Pre-crash anomaly scan over the fine ring: series whose trailing
      [window] samples (default 60 — the last minute at a 1 s tick)
      deviate from the whole-ring mean by more than [k] (default 3)
      standard deviations.  A sigma floor of 2% of the mean suppresses
      flat-series false positives; series with fewer than [2 * window]
      samples are skipped. *)

  (** {2 Sampler}

      The shared snapshot path: a declared set of [(name, read)]
      sources ticked periodically.  Each tick evaluates every source,
      persists one fine sample, and returns the values, so every
      consumer of the snapshot — the bench [\[metrics\]] printer, the
      server's SLO watchdog, the Prometheus [tsdb_*] gauges — reuses
      the exact values that were recorded instead of re-deriving its
      own. *)

  module Sampler : sig
    type tsdb = t
    (** The black box a sampler feeds. *)

    type t
    (** A declared source set bound to one black box. *)

    val create : tsdb -> (string * (float -> int)) list -> t
    (** [create db sources] declares each named series (see {!declare})
        and binds its read function.  A source receives the seconds
        elapsed since the previous tick ([0.] on the first), so rate
        series can diff state they carry in their own closure. *)

    val tick : t -> int array
    (** Evaluate every source, persist one fine sample stamped with
        {!now_ns}, and return the full value array (indexed by series
        id).  Returns [[||]] without evaluating anything while the
        black box is disabled — the inert-when-off contract. *)

    val index : t -> string -> int option
    (** The series id a name was declared under (for picking values out
        of {!tick}'s array). *)
  end
end

(** {1 Registry} *)

val dump : Format.formatter -> unit
(** Print every registered metric, sorted by name: counters and gauges
    with their values, histograms with count/mean/p50/p90/p99/max,
    derived metrics with their computed value.  Counters still at zero
    are omitted (per-size-class arrays register many silent ones). *)

val prometheus : Format.formatter -> unit
(** Print every registered metric in Prometheus text exposition format:
    names sanitized ([.] becomes [_]), counters/gauges as themselves,
    histograms as summaries (p50/p90/p99 [quantile] series plus [_sum] and
    [_count]), derived metrics as gauges.  Zero-count counters and empty
    histograms are omitted.  Served by [pkvd]'s STATS reply and
    [rstat --prometheus]. *)

val reset : unit -> unit
(** Zero every registered counter, gauge and histogram (derived metrics
    recompute; trace buffers are left alone — see {!Trace.clear}). *)
