(* Persistent layout.
   Index block: [0] nslots, [1] log_capacity, [2..] off-holders to the
   slot blocks.
   Slot block:  [0] status (0 = idle, 1 = committed), [1] entry count,
   entries from word 8 as (sb-region byte offset, value) pairs — offsets,
   not addresses, so logs are position independent like everything else. *)

type t = {
  heap : Ralloc.t;
  index : int;
  nslots : int;
  capacity : int;
  slot_va : int array;
  slot_busy : bool Atomic.t array; (* transient claim flags *)
}

type ctx = {
  mgr : t;
  slot : int;
  writes : (int, int) Hashtbl.t; (* va -> value, insertion order kept below *)
  mutable write_order : int list; (* newest first, unique *)
  mutable mallocs : int list;
  mutable frees : int list;
}

exception Abort
exception Log_overflow

(* Telemetry: aggregated over every transaction manager in the process.
   Commit latency covers the durable part of [run] — redo-log write,
   commit record, and application — not the user section. *)
let obs_begin = Obs.Counter.make "txn.begin"
let obs_commit = Obs.Counter.make "txn.commit"
let obs_abort = Obs.Counter.make "txn.abort"
let obs_commit_ns = Obs.Histogram.make "txn.commit_ns"

(* Persistency-checker sites, one per durable phase of a transaction. *)
module CK = Pmem.Check

let site_create = CK.site "txn.create"
let site_commit = CK.site "txn.commit_record"
let site_apply = CK.site "txn.apply"
let site_replay = CK.site "txn.replay"

let status_committed = 1
let entries_base = 8

let slot_bytes capacity = (entries_base + (2 * capacity)) * 8

(* Slot blocks hold offsets and raw values: nothing for the GC to chase. *)
let opaque_filter (_ : Ralloc.gc) (_ : int) = ()

let index_filter heap (gc : Ralloc.gc) va =
  let nslots = Ralloc.load heap va in
  for i = 0 to nslots - 1 do
    let slot = Ralloc.read_ptr heap (va + (8 * (2 + i))) in
    if slot <> 0 then gc.visit ~filter:opaque_filter slot
  done

let filter heap gc va = index_filter heap gc va

let make_handle heap index =
  let nslots = Ralloc.load heap index in
  let capacity = Ralloc.load heap (index + 8) in
  {
    heap;
    index;
    nslots;
    capacity;
    slot_va =
      Array.init nslots (fun i -> Ralloc.read_ptr heap (index + (8 * (2 + i))));
    slot_busy = Array.init nslots (fun _ -> Atomic.make false);
  }

let create ?(slots = 8) ?(log_capacity = 1024) heap ~root =
  if slots < 1 || log_capacity < 1 then invalid_arg "Txn.create";
  let index = Ralloc.malloc heap ((2 + slots) * 8) in
  if index = 0 then failwith "Txn.create: out of memory";
  CK.set_site site_create;
  Ralloc.store heap index slots;
  Ralloc.store heap (index + 8) log_capacity;
  for i = 0 to slots - 1 do
    let slot = Ralloc.malloc heap (slot_bytes log_capacity) in
    if slot = 0 then failwith "Txn.create: out of memory";
    Ralloc.store heap slot 0;
    Ralloc.store heap (slot + 8) 0;
    Ralloc.flush_block_range heap slot 16;
    Ralloc.write_ptr heap ~at:(index + (8 * (2 + i))) ~target:slot
  done;
  Ralloc.flush_block_range heap index ((2 + slots) * 8);
  Ralloc.fence heap;
  Ralloc.set_root heap root index;
  ignore (Ralloc.get_root ~filter:(filter heap) heap root);
  make_handle heap index

(* Apply a committed log: idempotent, so safe to repeat across crashes. *)
let replay_slot heap ~sb_base slot =
  CK.set_site site_replay;
  let n = Ralloc.load heap (slot + 8) in
  for i = 0 to n - 1 do
    let off = Ralloc.load heap (slot + (8 * (entries_base + (2 * i)))) in
    let v = Ralloc.load heap (slot + (8 * (entries_base + (2 * i) + 1))) in
    let va = sb_base + off in
    Ralloc.store heap va v;
    Ralloc.flush heap va
  done;
  Ralloc.fence heap;
  Ralloc.store heap slot 0;
  Ralloc.flush heap slot;
  Ralloc.fence heap

let attach heap ~root =
  let index = Ralloc.get_root ~filter:(filter heap) heap root in
  if index = 0 then invalid_arg "Txn.attach: root is unset";
  let t = make_handle heap index in
  let sb_base = Ralloc.sb_base heap in
  Array.iter
    (fun slot ->
      if Ralloc.load heap slot = status_committed then
        replay_slot heap ~sb_base slot)
    t.slot_va;
  t

let claim_slot t =
  let rec scan i =
    if i >= t.nslots then begin
      Domain.cpu_relax ();
      scan 0
    end
    else if Atomic.compare_and_set t.slot_busy.(i) false true then i
    else scan (i + 1)
  in
  scan 0

let release_slot t i = Atomic.set t.slot_busy.(i) false

let slots_in_use t =
  Array.fold_left (fun acc b -> if Atomic.get b then acc + 1 else acc) 0 t.slot_busy

let abort () = raise Abort

let store ctx va v =
  if not (Hashtbl.mem ctx.writes va) then
    ctx.write_order <- va :: ctx.write_order;
  Hashtbl.replace ctx.writes va v

let load ctx va =
  match Hashtbl.find_opt ctx.writes va with
  | Some v -> v
  | None -> Ralloc.load ctx.mgr.heap va

let store_ptr ctx ~at ~target = store ctx at (Pptr.encode ~holder:at ~target)
let load_ptr ctx va = Pptr.decode ~holder:va (load ctx va)

let malloc ctx size =
  let va = Ralloc.malloc ctx.mgr.heap size in
  if va <> 0 then ctx.mallocs <- va :: ctx.mallocs;
  va

let free ctx va = if va <> 0 then ctx.frees <- va :: ctx.frees

(* Persist the write set into the slot's redo log and write the commit
   record.  After this returns, the transaction is decided.
   [skip_status_flush] deliberately omits the flush of the committed
   status word — a seeded durability bug, reachable only through
   [Private], that the persistency checker must catch. *)
let write_commit_record ?(skip_status_flush = false) ctx =
  let heap = ctx.mgr.heap in
  let slot = ctx.mgr.slot_va.(ctx.slot) in
  let n = Hashtbl.length ctx.writes in
  if n > ctx.mgr.capacity then raise Log_overflow;
  CK.set_site site_commit;
  let sb_base = Ralloc.sb_base heap in
  List.iteri
    (fun i va ->
      Ralloc.store heap (slot + (8 * (entries_base + (2 * i)))) (va - sb_base);
      Ralloc.store heap
        (slot + (8 * (entries_base + (2 * i) + 1)))
        (Hashtbl.find ctx.writes va))
    ctx.write_order;
  Ralloc.store heap (slot + 8) n;
  Ralloc.flush_block_range heap slot ((entries_base + (2 * n)) * 8);
  Ralloc.fence heap;
  Ralloc.store heap slot status_committed;
  if not skip_status_flush then Ralloc.flush heap slot;
  Ralloc.fence heap

let apply ctx =
  let heap = ctx.mgr.heap in
  CK.set_site site_apply;
  let slot = ctx.mgr.slot_va.(ctx.slot) in
  Hashtbl.iter
    (fun va v ->
      Ralloc.store heap va v;
      Ralloc.flush heap va)
    ctx.writes;
  Ralloc.fence heap;
  Ralloc.store heap slot 0;
  Ralloc.flush heap slot;
  Ralloc.fence heap

let make_ctx t slot =
  {
    mgr = t;
    slot;
    writes = Hashtbl.create 32;
    write_order = [];
    mallocs = [];
    frees = [];
  }

let run t f =
  let slot = claim_slot t in
  let ctx = make_ctx t slot in
  Obs.Counter.incr obs_begin;
  (* an overflowing write set is refused before any log word is written,
     and rolls back like any other exception *)
  (match
     let result = f ctx in
     if Hashtbl.length ctx.writes > t.capacity then raise Log_overflow;
     result
   with
  | result ->
    if Hashtbl.length ctx.writes > 0 then begin
      let obs = Obs.on () in
      let t0 = if obs then Obs.now_ns () else 0 in
      let s0 = Obs.Trace.begin_span () in
      write_commit_record ctx;
      apply ctx;
      Obs.Trace.span "txn.commit" s0;
      if obs then Obs.Histogram.record obs_commit_ns (Obs.now_ns () - t0)
    end;
    Obs.Counter.incr obs_commit;
    if Obs.Flight.enabled () then
      Ralloc.flight_record t.heap ~kind:Obs.Flight.Kind.txn_commit
        ~a:(Hashtbl.length ctx.writes) ~b:(List.length ctx.mallocs)
        ~c:(List.length ctx.frees) ();
    (* deferred frees happen only once the transaction is durable *)
    List.iter (Ralloc.free t.heap) ctx.frees;
    release_slot t slot;
    result
  | exception e ->
    (* roll back: nothing was applied; release this transaction's blocks *)
    Obs.Counter.incr obs_abort;
    if Obs.Flight.enabled () then
      Ralloc.flight_record t.heap ~kind:Obs.Flight.Kind.txn_abort
        ~a:(Hashtbl.length ctx.writes) ~b:(List.length ctx.mallocs) ();
    List.iter (Ralloc.free t.heap) ctx.mallocs;
    release_slot t slot;
    raise e)

module Private = struct
  let commit_record_only ?skip_status_flush t f =
    let slot = claim_slot t in
    let ctx = make_ctx t slot in
    f ctx;
    write_commit_record ?skip_status_flush ctx;
    release_slot t slot
end
