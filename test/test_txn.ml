(* Tests for the failure-atomic transaction layer: atomic visibility,
   rollback, replay after a crash at the worst point, allocator
   integration (leaked transaction allocations are GC food), and the
   bank-transfer invariant under crashes. *)

let mb = 1 lsl 20

let with_txn ?(size = 16 * mb) f =
  let heap = Ralloc.create ~name:"txn" ~size () in
  let mgr = Txn.create heap ~root:0 in
  f heap mgr

let test_commit_applies () =
  with_txn (fun heap mgr ->
      let a = Ralloc.malloc heap 64 and b = Ralloc.malloc heap 64 in
      Txn.run mgr (fun tx ->
          Txn.store tx a 111;
          Txn.store tx b 222;
          (* the transaction reads its own writes *)
          Alcotest.(check int) "rur" 111 (Txn.load tx a));
      Alcotest.(check int) "a applied" 111 (Ralloc.load heap a);
      Alcotest.(check int) "b applied" 222 (Ralloc.load heap b))

let test_abort_rolls_back () =
  with_txn (fun heap mgr ->
      let a = Ralloc.malloc heap 64 in
      Ralloc.store heap a 5;
      (try
         Txn.run mgr (fun tx ->
             Txn.store tx a 999;
             Txn.abort ())
       with Txn.Abort -> ());
      Alcotest.(check int) "unchanged" 5 (Ralloc.load heap a);
      Alcotest.(check int) "no slots leaked" 0 (Txn.slots_in_use mgr))

(* Small-class blocks only: the manager's log slots are large blocks. *)
let small_allocated heap =
  List.fold_left
    (fun acc (c : Ralloc.Census.class_stats) -> acc + c.allocated_blocks)
    0 (Ralloc.census heap).Ralloc.Census.classes

let test_abort_frees_mallocs () =
  with_txn (fun heap mgr ->
      Ralloc.flush_thread_cache heap;
      let before = small_allocated heap in
      (try
         Txn.run mgr (fun tx ->
             for _ = 1 to 10 do
               ignore (Txn.malloc tx 256)
             done;
             Txn.abort ())
       with Txn.Abort -> ());
      Ralloc.flush_thread_cache heap;
      let after = small_allocated heap in
      Alcotest.(check int) "allocations released" before after)

let test_free_is_deferred () =
  with_txn (fun heap mgr ->
      let victim = Ralloc.malloc heap 64 in
      Ralloc.store heap victim 7;
      (try
         Txn.run mgr (fun tx ->
             Txn.free tx victim;
             Txn.abort ())
       with Txn.Abort -> ());
      (* abort: the free never happened *)
      Alcotest.(check int) "still intact" 7 (Ralloc.load heap victim);
      Txn.run mgr (fun tx -> Txn.free tx victim);
      (* committed: the block is reusable now *)
      Alcotest.(check int) "reused" victim (Ralloc.malloc heap 64))

let test_crash_before_commit_is_invisible () =
  with_txn (fun heap mgr ->
      let a = Ralloc.malloc heap 64 in
      Ralloc.store heap a 1;
      Ralloc.flush_block_range heap a 64;
      Ralloc.fence heap;
      Ralloc.set_root heap 1 a;
      (* run the body without committing, then crash *)
      (try
         Txn.run mgr (fun tx ->
             Txn.store tx a 42;
             raise Exit)
       with Exit -> ());
      let heap, _ = Ralloc.crash_and_reopen heap in
      ignore (Txn.attach heap ~root:0);
      ignore (Ralloc.get_root heap 1);
      ignore (Ralloc.recover heap);
      let a = Ralloc.get_root heap 1 in
      Alcotest.(check int) "old value" 1 (Ralloc.load heap a))

let test_replay_after_commit_record () =
  with_txn (fun heap mgr ->
      let a = Ralloc.malloc heap 64 and b = Ralloc.malloc heap 64 in
      Ralloc.store heap a 1;
      Ralloc.store heap b 2;
      Ralloc.flush_block_range heap a 64;
      Ralloc.flush_block_range heap b 64;
      Ralloc.fence heap;
      Ralloc.set_root heap 1 a;
      Ralloc.set_root heap 2 b;
      (* the adversarial schedule: commit record durable, apply never ran *)
      Txn.Private.commit_record_only mgr (fun tx ->
          Txn.store tx a 100;
          Txn.store tx b 200);
      Alcotest.(check int) "not yet applied" 1 (Ralloc.load heap a);
      let heap, _ = Ralloc.crash_and_reopen heap in
      ignore (Txn.attach heap ~root:0) (* replay happens here *);
      ignore (Ralloc.get_root heap 1);
      ignore (Ralloc.get_root heap 2);
      ignore (Ralloc.recover heap);
      let a = Ralloc.get_root heap 1 and b = Ralloc.get_root heap 2 in
      Alcotest.(check int) "a replayed" 100 (Ralloc.load heap a);
      Alcotest.(check int) "b replayed" 200 (Ralloc.load heap b);
      (* replay must be idempotent across repeated crashes *)
      let heap, _ = Ralloc.crash_and_reopen heap in
      ignore (Txn.attach heap ~root:0);
      ignore (Ralloc.get_root heap 1);
      ignore (Ralloc.recover heap);
      let a = Ralloc.get_root heap 1 in
      Alcotest.(check int) "still 100" 100 (Ralloc.load heap a))

let test_leaked_txn_alloc_collected () =
  with_txn (fun heap mgr ->
      let keeper = Ralloc.malloc heap 64 in
      Ralloc.flush_block_range heap keeper 64;
      Ralloc.fence heap;
      Ralloc.set_root heap 1 keeper;
      (* a transaction allocates, stores into its block, and the system
         dies before commit: the block must be collected *)
      (try
         Txn.run mgr (fun tx ->
             let n = Txn.malloc tx 128 in
             Txn.store tx n 42;
             raise Exit)
       with Exit -> ());
      let heap, _ = Ralloc.crash_and_reopen heap in
      ignore (Txn.attach heap ~root:0);
      ignore (Ralloc.get_root heap 1);
      let stats = Ralloc.recover heap in
      (* keeper + txn index + 8 slot blocks *)
      Alcotest.(check int) "only rooted blocks survive" 10
        stats.reachable_blocks)

(* Blocks a committed transaction allocated and linked are ordinary live
   data to the recovery GC. *)
let test_committed_mallocs_survive_crash () =
  with_txn (fun heap mgr ->
      let anchor = Ralloc.malloc heap 64 in
      for i = 0 to 7 do
        Ralloc.store heap (anchor + (8 * i)) 0
      done;
      Ralloc.flush_block_range heap anchor 64;
      Ralloc.fence heap;
      Ralloc.set_root heap 1 anchor;
      Txn.run mgr (fun tx ->
          for i = 0 to 3 do
            let n = Txn.malloc tx 64 in
            Txn.store tx n (100 + i);
            Txn.store_ptr tx ~at:(anchor + (8 * i)) ~target:n
          done);
      let heap, _ = Ralloc.crash_and_reopen heap in
      ignore (Txn.attach heap ~root:0);
      ignore (Ralloc.get_root heap 1);
      let stats = Ralloc.recover heap in
      (* anchor + 4 nodes + txn index + 8 slot blocks *)
      Alcotest.(check int) "linked blocks live" 14 stats.reachable_blocks;
      let anchor = Ralloc.get_root heap 1 in
      for i = 0 to 3 do
        Alcotest.(check int) "node content" (100 + i)
          (Ralloc.load heap (Ralloc.read_ptr heap (anchor + (8 * i))))
      done)

(* A crash after the commit record but before apply also loses the
   deferred free; replay unlinks the old block, so the GC collects it. *)
let test_crash_before_deferred_free () =
  with_txn (fun heap mgr ->
      let anchor = Ralloc.malloc heap 64 and old = Ralloc.malloc heap 64 in
      Ralloc.store heap old 1;
      Ralloc.write_ptr heap ~at:anchor ~target:old;
      Ralloc.flush_block_range heap anchor 64;
      Ralloc.flush_block_range heap old 64;
      Ralloc.fence heap;
      Ralloc.set_root heap 1 anchor;
      Txn.Private.commit_record_only mgr (fun tx ->
          let fresh = Txn.malloc tx 64 in
          Txn.store tx fresh 2;
          Txn.store_ptr tx ~at:anchor ~target:fresh;
          Txn.free tx old);
      let heap, _ = Ralloc.crash_and_reopen heap in
      ignore (Txn.attach heap ~root:0);
      ignore (Ralloc.get_root heap 1);
      let stats = Ralloc.recover heap in
      (* anchor + fresh + txn index + 8 slot blocks; [old] is garbage *)
      Alcotest.(check int) "old block collected" 11 stats.reachable_blocks;
      let anchor = Ralloc.get_root heap 1 in
      Alcotest.(check int) "replayed swing" 2
        (Ralloc.load heap (Ralloc.read_ptr heap anchor));
      let a = Ralloc.audit heap in
      Alcotest.(check bool) "audit consistent" true a.Ralloc.Audit.consistent)

let test_clean_restart_via_files () =
  let path = Filename.temp_file "txn" "heap" in
  Sys.remove path;
  let heap, _ = Ralloc.init ~path ~size:(4 * mb) () in
  let mgr = Txn.create heap ~root:0 in
  let a = Ralloc.malloc heap 16 in
  Ralloc.store heap a 0;
  Ralloc.store heap (a + 8) 0;
  Ralloc.flush_block_range heap a 16;
  Ralloc.fence heap;
  Ralloc.set_root heap 1 a;
  Txn.run mgr (fun tx ->
      Txn.store tx a 7;
      Txn.store tx (a + 8) 8);
  Ralloc.close heap;
  let heap, status = Ralloc.init ~path ~size:(4 * mb) () in
  Alcotest.(check bool) "clean restart" true (status = Ralloc.Clean_restart);
  let mgr = Txn.attach heap ~root:0 in
  let a = Ralloc.get_root heap 1 in
  Alcotest.(check int) "first word" 7 (Ralloc.load heap a);
  Alcotest.(check int) "second word" 8 (Ralloc.load heap (a + 8));
  Txn.run mgr (fun tx -> Txn.store tx a 9);
  Alcotest.(check int) "usable after reopen" 9 (Ralloc.load heap a);
  Ralloc.close heap;
  List.iter (fun ext -> Sys.remove (path ^ ext)) [ ".meta"; ".desc"; ".sb" ]

let test_log_overflow () =
  let heap = Ralloc.create ~name:"txn-of" ~size:(16 * mb) () in
  let mgr = Txn.create ~log_capacity:4 heap ~root:0 in
  let a = Ralloc.malloc heap 64 in
  Alcotest.check_raises "overflow" Txn.Log_overflow (fun () ->
      Txn.run mgr (fun tx ->
          for i = 0 to 4 do
            Txn.store tx (a + (8 * i)) i
          done))

(* An overflowing write set must leave nothing behind: no applied store,
   no held slot, no block from the transaction's mallocs. *)
let test_log_overflow_releases () =
  let heap = Ralloc.create ~name:"txn-of-rel" ~size:(16 * mb) () in
  let mgr = Txn.create ~log_capacity:4 heap ~root:0 in
  let a = Ralloc.malloc heap 64 in
  for i = 0 to 4 do
    Ralloc.store heap (a + (8 * i)) 0
  done;
  Ralloc.flush_thread_cache heap;
  let before = small_allocated heap in
  Alcotest.check_raises "overflow" Txn.Log_overflow (fun () ->
      Txn.run mgr (fun tx ->
          ignore (Txn.malloc tx 64);
          for i = 0 to 4 do
            Txn.store tx (a + (8 * i)) (i + 1)
          done));
  Alcotest.(check int) "slot released" 0 (Txn.slots_in_use mgr);
  Alcotest.(check int) "nothing applied" 0 (Ralloc.load heap a);
  Ralloc.flush_thread_cache heap;
  Alcotest.(check int) "malloc released" before (small_allocated heap);
  Txn.run mgr (fun tx -> Txn.store tx a 9);
  Alcotest.(check int) "manager still usable" 9 (Ralloc.load heap a)

let test_foreign_exception_rolls_back () =
  with_txn (fun heap mgr ->
      let a = Ralloc.malloc heap 64 in
      Ralloc.store heap a 5;
      Ralloc.flush_thread_cache heap;
      let before = small_allocated heap in
      Alcotest.check_raises "propagates unchanged" Not_found (fun () ->
          Txn.run mgr (fun tx ->
              Txn.store tx a 6;
              ignore (Txn.malloc tx 128);
              raise Not_found));
      Alcotest.(check int) "unchanged" 5 (Ralloc.load heap a);
      Alcotest.(check int) "slot released" 0 (Txn.slots_in_use mgr);
      Ralloc.flush_thread_cache heap;
      Alcotest.(check int) "malloc released" before (small_allocated heap))

let test_store_ptr_roundtrip () =
  with_txn (fun heap mgr ->
      let holder = Ralloc.malloc heap 64 and target = Ralloc.malloc heap 64 in
      Ralloc.store heap holder 0;
      Txn.run mgr (fun tx ->
          Txn.store_ptr tx ~at:holder ~target;
          Alcotest.(check int) "reads its own pointer" target
            (Txn.load_ptr tx holder);
          Alcotest.(check int) "not yet visible" 0 (Ralloc.read_ptr heap holder));
      Alcotest.(check int) "applied" target (Ralloc.read_ptr heap holder))

(* Txn.malloc returns 0 on an exhausted heap; aborting then hands back
   every block the transaction took. *)
let test_exhausted_abort_frees_all () =
  with_txn ~size:(1 * mb) (fun heap mgr ->
      Ralloc.flush_thread_cache heap;
      let before = small_allocated heap in
      let taken = ref 0 in
      (try
         Txn.run mgr (fun tx ->
             while Txn.malloc tx 256 <> 0 do
               incr taken
             done;
             Txn.abort ())
       with Txn.Abort -> ());
      Alcotest.(check bool) "filled the heap" true (!taken > 100);
      Ralloc.flush_thread_cache heap;
      Alcotest.(check int) "all released" before (small_allocated heap);
      Alcotest.(check bool) "heap usable again" true (Ralloc.malloc heap 256 <> 0))

(* Replacing a node per transaction (malloc the new one, swing the
   pointer, free the old one) must recycle: the deferred frees really
   happen. *)
let test_replace_churn_bounded () =
  with_txn (fun heap mgr ->
      let anchor = Ralloc.malloc heap 64 in
      Ralloc.write_ptr heap ~at:anchor ~target:(Ralloc.malloc heap 64);
      Ralloc.flush_thread_cache heap;
      let before = small_allocated heap in
      for i = 1 to 5000 do
        Txn.run mgr (fun tx ->
            let old = Txn.load_ptr tx anchor in
            let fresh = Txn.malloc tx 64 in
            Txn.store tx fresh i;
            Txn.store_ptr tx ~at:anchor ~target:fresh;
            Txn.free tx old)
      done;
      Ralloc.flush_thread_cache heap;
      Alcotest.(check int) "steady state" before (small_allocated heap);
      Alcotest.(check int) "newest node" 5000
        (Ralloc.load heap (Ralloc.read_ptr heap anchor)))

(* Transfers between persistent accounts with a crash after every batch:
   the total must be conserved no matter where the crashes land. *)
let test_bank_invariant_across_crashes () =
  let naccounts = 20 and initial = 100 in
  let heap = ref (Ralloc.create ~name:"bank" ~size:(16 * mb) ()) in
  let mgr = ref (Txn.create !heap ~root:0) in
  let accounts = Ralloc.malloc !heap (naccounts * 8) in
  for i = 0 to naccounts - 1 do
    Ralloc.store !heap (accounts + (8 * i)) initial
  done;
  Ralloc.flush_block_range !heap accounts (naccounts * 8);
  Ralloc.fence !heap;
  Ralloc.set_root !heap 1 accounts;
  let rng = Random.State.make [| 31337 |] in
  for _round = 1 to 8 do
    let accounts = Ralloc.get_root !heap 1 in
    for _ = 1 to 50 do
      let src = Random.State.int rng naccounts
      and dst = Random.State.int rng naccounts in
      let amount = Random.State.int rng 10 in
      try
        Txn.run !mgr (fun tx ->
            let s = Txn.load tx (accounts + (8 * src)) in
            if s < amount then Txn.abort ();
            Txn.store tx (accounts + (8 * src)) (s - amount);
            let d = Txn.load tx (accounts + (8 * dst)) in
            Txn.store tx (accounts + (8 * dst)) (d + amount))
      with Txn.Abort -> ()
    done;
    let h, _ = Ralloc.crash_and_reopen !heap in
    heap := h;
    mgr := Txn.attach h ~root:0;
    ignore (Ralloc.get_root h 1);
    ignore (Ralloc.recover h);
    let accounts = Ralloc.get_root h 1 in
    let total = ref 0 in
    for i = 0 to naccounts - 1 do
      total := !total + Ralloc.load h (accounts + (8 * i))
    done;
    Alcotest.(check int) "money conserved" (naccounts * initial) !total
  done

let test_concurrent_txns_disjoint () =
  with_txn ~size:(32 * mb) (fun heap mgr ->
      let threads = 4 and cells = 4 in
      let blocks =
        Array.init threads (fun _ -> Ralloc.malloc heap (cells * 8))
      in
      let ds =
        List.init threads (fun tid ->
            Domain.spawn (fun () ->
                for i = 1 to 200 do
                  Txn.run mgr (fun tx ->
                      for c = 0 to cells - 1 do
                        Txn.store tx (blocks.(tid) + (8 * c)) ((i * 10) + c)
                      done)
                done;
                Ralloc.flush_thread_cache heap))
      in
      List.iter Domain.join ds;
      Array.iteri
        (fun _tid b ->
          for c = 0 to cells - 1 do
            Alcotest.(check int) "final state" (2000 + c)
              (Ralloc.load heap (b + (8 * c)))
          done)
        blocks;
      Alcotest.(check int) "slots all released" 0 (Txn.slots_in_use mgr))

let () =
  Alcotest.run "txn"
    [
      ( "atomicity",
        [
          Alcotest.test_case "commit applies" `Quick test_commit_applies;
          Alcotest.test_case "abort rolls back" `Quick test_abort_rolls_back;
          Alcotest.test_case "abort frees mallocs" `Quick
            test_abort_frees_mallocs;
          Alcotest.test_case "free is deferred" `Quick test_free_is_deferred;
          Alcotest.test_case "log overflow" `Quick test_log_overflow;
          Alcotest.test_case "log overflow releases everything" `Quick
            test_log_overflow_releases;
          Alcotest.test_case "foreign exception rolls back" `Quick
            test_foreign_exception_rolls_back;
          Alcotest.test_case "store_ptr round trip" `Quick
            test_store_ptr_roundtrip;
          Alcotest.test_case "exhausted abort frees all" `Quick
            test_exhausted_abort_frees_all;
          Alcotest.test_case "replace churn bounded" `Quick
            test_replace_churn_bounded;
        ] );
      ( "crashes",
        [
          Alcotest.test_case "crash before commit invisible" `Quick
            test_crash_before_commit_is_invisible;
          Alcotest.test_case "replay after commit record" `Quick
            test_replay_after_commit_record;
          Alcotest.test_case "leaked txn alloc collected" `Quick
            test_leaked_txn_alloc_collected;
          Alcotest.test_case "bank invariant across crashes" `Quick
            test_bank_invariant_across_crashes;
          Alcotest.test_case "committed mallocs survive crash" `Quick
            test_committed_mallocs_survive_crash;
          Alcotest.test_case "crash before deferred free" `Quick
            test_crash_before_deferred_free;
          Alcotest.test_case "clean restart via files" `Quick
            test_clean_restart_via_files;
        ] );
      ( "concurrency",
        [
          Alcotest.test_case "disjoint concurrent txns" `Slow
            test_concurrent_txns_disjoint;
        ] );
    ]
