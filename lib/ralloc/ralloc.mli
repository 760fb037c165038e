(** Ralloc: a nonblocking {e recoverable} allocator for persistent memory.

    OCaml reproduction of Cai, Wen, Beadle, Kjellqvist, Hedayati & Scott,
    "Understanding and Optimizing Persistent Memory Allocation" (U. Rochester
    TR #1008 / PPoPP'20 BA).  Built on the simulated NVM of {!Pmem}.

    A heap lives in three persistent regions (superblocks, descriptors,
    metadata — see {!Layout}) and is managed with lock-free operations
    inherited from LRMalloc: per-domain caches serve most requests without
    synchronization; slow paths use CAS on packed {!Anchor}s and counted
    Treiber lists.  Persistence costs almost nothing online: only the
    per-superblock size class/block size, region watermark, roots and dirty
    flag are flushed.  After a crash, {!recover} runs a tracing GC from the
    persistent roots and reconstructs all other metadata, so that {e all and
    only} the reachable blocks are allocated — the paper's
    {b recoverability} criterion.

    Application data must be position independent: store pointers with
    {!write_ptr} (off-holders; see {!Pptr}) and register every structure's
    entry point as a persistent root. *)

type t
(** A transient handle on an open heap.  Handles are invalidated by
    {!close} and {!crash_and_reopen}. *)

type status =
  | Fresh  (** no heap existed; a new one was created *)
  | Clean_restart  (** heap existed and was cleanly closed *)
  | Dirty_restart  (** heap existed and was {b not} cleanly closed:
                       call {!get_root} for each root, then {!recover} *)

(** {1 Lifecycle (paper Fig. 1)} *)

val create :
  ?name:string ->
  ?persist:bool ->
  ?sb_base:int ->
  ?expansion_sbs:int ->
  ?heap_id:int ->
  ?tcache:bool ->
  size:int ->
  unit ->
  t
(** [create ~size ()] makes a fresh in-memory heap whose superblock region
    is [size] bytes (rounded up to whole 64 KB superblocks; one superblock
    is reserved for the region header).

    [persist] (default [true]): when [false] the allocator issues no
    flushes or fences — this is exactly the paper's LRMalloc baseline
    ("Ralloc without flush and fence").

    [sb_base]: virtual base address for the superblock region; defaults to
    a fresh address, different on every open, which exercises position
    independence.

    [expansion_sbs]: superblocks added to the free list per region
    expansion (the paper grows by 1 GB; default 16 here).

    [heap_id]: the persistent 12-bit identity used by RIV cross-heap
    pointers; defaults to a best-effort unique value — assign explicitly
    when heaps reference each other across program runs.

    [tcache] (default [true]): with [false], every operation synchronizes
    on the superblock anchor — one-block-at-a-time CAS allocation, the
    profile of Michael's 2004 allocator that LRMalloc's thread caching
    improved on (paper §3).  Exposed for the [abl_tcache] ablation. *)

val init :
  ?persist:bool ->
  ?sb_base:int ->
  ?expansion_sbs:int ->
  path:string ->
  size:int ->
  unit ->
  t * status
(** [init ~path ~size ()] creates or re-opens the heap backed by files at
    [path] (the DAX-file equivalent).  On [Dirty_restart] the caller must
    re-register filters with {!get_root} and then call {!recover} before
    allocating.
    @raise Failure on an existing image whose stamped metadata-layout
    version differs from {!Layout.layout_version} ("heap built by layout
    vN, expected vM") — refusing up front beats misreading offsets. *)

val close : t -> unit
(** Graceful shutdown: returns the calling domain's cached blocks to their
    superblocks, writes the whole heap back to NVM, clears the dirty flag,
    and (if file-backed) saves the image.  The handle becomes invalid. *)

val open_image : path:string -> t * status
(** [open_image ~path] opens the heap files at [path] {e offline}: the
    regions are read into memory and never written back (no file backing,
    no dirty-flag write, no recovery), so the caller sees exactly the
    durable state a post-crash open would see — the contract of the
    [rstat] inspector.  {!audit}, {!census}, and even a trial {!recover}
    may be run against the in-memory copy without mutating the image.
    Status is {!Clean_restart} or {!Dirty_restart} (never {!Fresh}).
    @raise Failure if the files are missing, not a Ralloc heap, or built
    by a different metadata-layout version. *)

val name : t -> string
(** The heap's display name (its path, or the [?name] passed to {!create}). *)

val is_dirty : t -> bool
(** Whether the persistent dirty indicator is currently set. *)

val capacity_bytes : t -> int
(** Size of the superblock (data) region in bytes. *)

val persist_enabled : t -> bool
(** False iff the heap was opened with [persist:false] (the LRMalloc
    baseline: no flushes, no fences). *)

(** {1 Allocation} *)

val malloc : t -> int -> int
(** [malloc t size] allocates [size] bytes and returns the block's virtual
    address, or 0 if the heap is exhausted.  Sizes up to 14336 B are served
    from size-classed superblocks via the per-domain cache; larger sizes
    get whole superblocks.  Lock-free; no flushes except when a superblock
    is (re)provisioned.

    Constant-time in the common case: a cache hit pops the LIFO array or
    the lazily-adopted superblock (sequential run or owned chain), and
    even a cache {e miss} is O(1) — refill adopts a whole free list by
    recording its head and length behind one CAS, never copying it.  The
    reserve CAS retries at most a small constant number of times before
    falling through to a fresh superblock ([ralloc.refill.retries]
    counts the retries). *)

val free : t -> int -> unit
(** Return a block to the allocator.  Lock-free; flush-free.

    Constant-time in the common case (a push onto the domain cache); a
    full cache sheds its oldest half with one splice CAS per {e
    superblock} rather than per block — O(capacity) stores but 1/2
    capacity frees of headroom before the next eviction. *)

val usable_size : t -> int -> int
(** Actual capacity of the block at the given address. *)

val flush_thread_cache : t -> unit
(** Return the calling domain's cached blocks — LIFO arrays, owned chains
    and owned runs alike — to their superblocks.  Worker domains should
    call this before terminating (the moral equivalent of a thread-exit
    hook); blocks cached by domains that die without it are recovered by
    the next {!recover}. *)

(** {1 Persistent roots and filter functions (paper §4.1, §4.5.1)} *)

type gc = { visit : ?filter:filter -> int -> unit }
(** The tracing context passed to filter functions: [gc.visit va] declares
    that the block at [va] is reachable; the optional [filter] is the
    filter function for {e that} block's type. *)

and filter = gc -> int -> unit
(** A filter function enumerates the pointers inside a block of its type by
    calling [gc.visit] on each — the paper's [filter<T>].  Blocks without a
    filter are scanned conservatively: every word carrying the off-holder
    tag is treated as a pointer. *)

val max_roots : int
(** Number of persistent root slots ({!Layout.max_roots}). *)

val set_root : t -> int -> int -> unit
(** [set_root t i va] durably records [va] as persistent root [i]
    (0 clears it).  Roots are stored as region-based position-independent
    pointers and persisted immediately. *)

val get_root : ?filter:filter -> t -> int -> int
(** [get_root t i] returns root [i] (0 if unset) and — as a side effect,
    like the paper's [getRoot<T>] — associates [filter] with that root for
    the next {!recover}.  After a [Dirty_restart], call this for every
    root {e before} {!recover}. *)

(** {1 Recovery (paper §4.5)} *)

type recovery_stats = {
  reachable_blocks : int;  (** blocks found live by the trace *)
  reclaimed_superblocks : int;  (** superblocks returned to the free list *)
  partial_superblocks : int;  (** superblocks left partially allocated *)
  trace_seconds : float;  (** time in the tracing phase (GC proper) *)
  rebuild_seconds : float;  (** time reconstructing metadata *)
}

val recover : ?domains:int -> t -> recovery_stats
(** Offline GC + metadata reconstruction: traces all blocks reachable from
    the persistent roots (using registered filters, conservatively
    otherwise), then rebuilds every anchor, free list and partial list so
    that all and only the traced blocks are allocated.  Safe to run on a
    clean heap too (it will simply rediscover the same state); also safe on
    a {e live} quiescent heap whose surviving domains have all called
    {!flush_thread_cache} — the stop-the-world collection for partial
    (single-process) crashes of paper §4.5.2.

    [domains > 1] parallelizes the reconstruction phase across that many
    domains, each rebuilding a slice of the superblocks (the paper's §6.4
    future work; the trace remains sequential). *)

(** {1 Failure injection} *)

val crash_and_reopen : ?sb_base:int -> t -> t * status
(** Simulate a full-system crash and remap: all unflushed (un-evicted)
    data is lost, all transient state (thread caches, registered filters)
    vanishes, and the heap is re-opened — by default at a different
    virtual base, which any position-dependent data will not survive.
    The old handle is invalid afterwards. *)

val set_eviction_rate : t -> float -> unit
(** Make the simulated cache write dirty lines back spontaneously with the
    given per-store probability (see {!Pmem.set_eviction_rate}). *)

(** {1 Cross-heap (RIV) pointers — paper §4.6 near-term plan}

    Off-holders cannot leave their heap; RIV words carry a persistent heap
    id plus an offset, resolved through a transient registry of currently
    mapped heaps.  Cross-heap edges are invisible to each heap's GC, so a
    block referenced from another heap must also be rooted in its own. *)

val heap_id : t -> int
(** This heap's persistent identity (12 bits). *)

val write_riv : t -> at:int -> target_heap:t -> target:int -> unit
(** Store at [at] (in heap [t]) a cross-heap pointer to [target] in
    [target_heap].  [target = 0] stores null. *)

val read_riv : t -> int -> (t * int) option
(** Resolve the RIV word at [va]: the target heap (which must currently
    be open in this process) and the target's virtual address.  [None]
    for null, non-RIV words, or unmapped heaps. *)

(** {1 Memory access (application data, superblock region)} *)

val load : t -> int -> int
(** [load t va] atomically reads the word at 8-aligned virtual address
    [va] inside an allocated block. *)

val store : t -> int -> int -> unit
(** [store t va v] atomically writes [v] at 8-aligned virtual address [va]. *)

val cas : t -> int -> expected:int -> desired:int -> bool
(** Atomic compare-and-swap on the word at [va]; true on success. *)

val fetch_add : t -> int -> int -> int
(** Atomically add to the word at [va], returning the previous value. *)

val flush : t -> int -> unit
(** Write the cache line holding [va] back to NVM (no-op when the heap was
    opened with [persist:false]). *)

val fence : t -> unit
(** Ordering fence: drain the calling domain's posted flushes ({!Pmem.fence};
    no-op when opened with [persist:false]). *)

val fence_release : t -> unit
(** Release (durability-ack) fence: {!Pmem.fence_release} — elidable under
    the per-domain group-commit deferral ({!Pmem.set_fence_deferral}).  Use
    only after the operation is already published; ordering fences must stay
    {!fence}. *)

val read_ptr : t -> int -> int
(** [read_ptr t va] loads the word at [va] and decodes it as an off-holder,
    returning the target virtual address (0 for null). *)

val write_ptr : t -> at:int -> target:int -> unit
(** [write_ptr t ~at ~target] stores the off-holder encoding of [target]
    at [va = at]. *)

val load_byte : t -> int -> int
(** Read the byte at virtual address [va]. *)

val store_byte : t -> int -> int -> unit
(** Write one byte at virtual address [va]. *)

val store_string : t -> int -> string -> unit
(** Copy a string byte-by-byte into the block at [va] (no terminator). *)

val load_string : t -> int -> int -> string
(** [load_string t va len] reads [len] bytes starting at [va]. *)

val flush_block_range : t -> int -> int -> unit
(** [flush_block_range t va len] flushes the lines covering [len] bytes at [va]. *)

val sb_base : t -> int
(** Current virtual base of the superblock region (changes across
    re-openings — do not store it in persistent memory). *)

val valid_block : t -> int -> bool
(** True iff [va] is the start of a currently plausible block — used by
    tests and the conservative scanner. *)

(** {1 Flight recorder}

    Every heap reserves a window at the tail of its metadata region for a
    persistent event ring ({!Obs.Flight}): when [Obs.Flight.set_enabled
    true], allocator lifecycle events — malloc/free with size class and
    block offset, superblock provision/acquire/retire, root updates, heap
    open/close, recovery phase boundaries — are recorded there with full
    flush/fence discipline, so the last {!Layout.flight_capacity} events
    survive a crash inside the heap image. *)

val flight : t -> Obs.Flight.t option
(** The heap's attached flight recorder.  [None] only if the window's
    header is corrupt (older layouts are refused at open). *)

val flight_record : t -> kind:int -> ?a:int -> ?b:int -> ?c:int -> unit -> unit
(** Record one event in the heap's flight ring (no-op while the recorder
    is disabled or absent).  Used by the allocator's own hooks and by
    cooperating layers — lib/txn records its commits and aborts here. *)

(** {1 Heap provenance}

    When the sampling profiler is on ([Obs.Prof.set_enabled true]), malloc
    pays one per-domain countdown decrement per allocation; roughly every
    {!Obs.Prof.rate} allocated bytes the winning block is attributed to
    the current interned site ({!Obs.Prof.set_site}) both in the volatile
    tally table and, durably, in the provenance ring carved out of the
    metadata region next to the flight window — so [rstat --prof] can say
    which site allocated the blocks that survived a crash. *)

val prov : t -> Obs.Prof.Ring.t option
(** The heap's attached provenance ring.  [None] only if the window's
    header is corrupt. *)

val prov_site_name : t -> int -> string option
(** Resolve a provenance-ring site id against the heap's persistent
    site-name table ([None] if the table is absent, the id is out of
    range, or the slot was never persisted). *)

(** {1 Metrics black box}

    The last carve-out of the metadata region is a
    crash-surviving time-series recorder ({!Obs.Tsdb}): three
    multi-resolution sample rings a sampler thread writes checksummed,
    fenced records into, so an offline inspector ([rstat --timeline])
    can reconstruct the last minutes of ops/s, queue depth, occupancy
    and friends from a dirty image. *)

val tsdb : t -> Obs.Tsdb.t option
(** The heap's attached metrics black box.  [None] only if the window's
    header is corrupt or its geometry differs.  Writes go through
    the region's normal persistence pipeline except on [persist:false]
    heaps, where flush and fence are nulled (sampling a baseline heap
    must not add persistence traffic the allocator itself would not). *)

val tsdb_global_sources : unit -> (string * (float -> int)) list
(** The heap-free standard series for an {!Obs.Tsdb.Sampler}, read
    entirely from the process-wide [Obs] registry: malloc/free rates,
    thread-cache hit rate (per-mille), flushes and fences per 1000
    allocator ops, write amplification (milli, see {!Pmem.write_amp})
    and persistency-checker waste rates.  Shared by the bench interval
    ticker (which has no single heap in scope) and {!tsdb_sources}.
    Rate sources carry per-call delta state — build the list once per
    sampler, not per tick. *)

val tsdb_sources : t -> (string * (float -> int)) list
(** {!tsdb_global_sources} plus the census-derived per-heap series
    (occupancy and external fragmentation, per-mille; one census walk
    per tick) — the standard series set the server's sampler thread
    records into the heap's black box. *)

val reachable_offsets : t -> int -> bool
(** [reachable_offsets t] traces the heap once from its persistent roots
    (the same walk {!recover} and {!audit} use) and returns a membership
    test on block byte-offsets — true iff the offset starts a block
    reachable from the roots.  Offline attribution uses it to split
    provenance entries into live vs leaked. *)

(** {1 Census and recoverability audit} *)

(** Occupancy and fragmentation of a heap, from one walk over the
    provisioned descriptors. *)
module Census : sig
  type class_stats = {
    size_class : int;
    block_size : int;
    superblocks : int;
    full : int;
    partial : int;
    allocated_blocks : int;  (** includes blocks sitting in thread caches *)
    free_blocks : int;
    slack_bytes : int;
        (** geometry slack: 64 KB mod block_size, summed over superblocks *)
  }

  type t = {
    capacity_bytes : int;
    provisioned_bytes : int;  (** superblocks claimed by the watermark *)
    provisioned_superblocks : int;
    empty_superblocks : int;
    large_superblocks : int;
    large_blocks : int;
    allocated_blocks : int;  (** small + large *)
    free_blocks : int;  (** small blocks on superblock free lists *)
    allocated_bytes : int;
    free_bytes : int;
        (** free small blocks + empty superblocks + unprovisioned space *)
    slack_bytes : int;
    occupancy : float;  (** allocated bytes / provisioned bytes *)
    internal_frag : float;  (** slack bytes / provisioned bytes *)
    external_frag : float;
        (** share of free bytes trapped in class-bound partial
            superblocks, unusable by other classes until they drain *)
    classes : class_stats list;  (** only classes with superblocks *)
    dirty : bool;
  }

  val pp : Format.formatter -> t -> unit
  (** Human-readable census table. *)
end

val census : t -> Census.t
(** One read-only walk over the descriptors.  Quiescent use only: a
    concurrent mutator makes the numbers approximate, never unsafe. *)

(** The reachable-vs-allocated diff: a machine-checkable verdict on the
    paper's recoverability criterion. *)
module Audit : sig
  type block = { offset : int; bytes : int }
  (** A block named by its byte offset in the superblock region
      (position-independent). *)

  type t = {
    dirty : bool;
    provisioned_superblocks : int;
    reachable_blocks : int;  (** found by tracing from persistent roots *)
    allocated_blocks : int;  (** what the metadata says is taken *)
    leaked : block list;  (** allocated but unreachable (capped) *)
    orphaned : block list;  (** reachable but marked free (capped) *)
    leaked_blocks : int;
    leaked_bytes : int;
    orphaned_blocks : int;
    orphaned_bytes : int;
    errors : string list;
        (** structural violations in persisted (bold) fields recovery
            must trust: bad watermark, undecodable root, inconsistent
            class/block-size.  Any entry makes the image unrecoverable. *)
    stale_metadata : string list;
        (** transient metadata (anchors, free-list links) that could not
            be walked — expected on a dirty image, where it is exactly
            what recovery rebuilds, but it leaves the diff incomplete *)
    recoverable : bool;  (** [errors = []] *)
    consistent : bool;
        (** recoverable, no stale metadata, and an empty diff: all and
            only the reachable blocks are allocated — the paper's
            criterion, which must hold on every cleanly closed image and
            after every recovery *)
  }

  val pp : Format.formatter -> t -> unit
  (** Human-readable audit verdict. *)
end

val audit : ?max_list:int -> t -> Audit.t
(** Trace from the persistent roots (with any filters registered via
    {!get_root}; conservative scan otherwise) and diff the marks against
    the metadata.  Read-only — never mutates the heap, so it can run on
    a dirty image {e before} recovery, and again after, including on
    {!open_image} handles.  [max_list] (default 64) caps the [leaked] /
    [orphaned] lists; counts and byte totals are always exact. *)

(** {1 Statistics} *)

val stats : t -> Pmem.Stats.snapshot
(** Aggregated persistence-operation counts over the heap's three regions. *)

val reset_stats : t -> unit
(** Zero the persistence-operation counters of all three regions. *)

(** {1 Introspection} *)

(** Test oracles over the calling domain's thread caches.  Heap-wide
    occupancy is {!census}; the reachable-vs-allocated verdict is
    {!audit}. *)
module Debug : sig
  val cached_blocks : t -> int list
  (** Every block address held by the {e calling} domain's caches — the
      LIFO arrays, the lazily-adopted owned chains (walked through their
      link words) and the owned sequential runs.  These blocks are
      metadata-allocated but application-free; with [flush_thread_cache]
      they all return to their superblocks.  Test oracle for the
      adoption invariant (each cached block appears exactly once and in
      exactly one compartment). *)
end

(** {1 Internal modules (exposed for tests and benchmarks)} *)

module Size_class : module type of Size_class
module Anchor : module type of Anchor
module Layout : module type of Layout
module Tcache : module type of Tcache
