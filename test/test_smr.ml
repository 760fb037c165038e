(* Tests for the epoch-based safe-memory-reclamation layer and its
   integration with the lock-free structures: deferred frees, protection
   against premature reuse, bounded memory under churn, and the
   crash-obliviousness of limbo lists (the GC collects what a crash
   strands there). *)

let mb = 1 lsl 20

let test_retire_defers_then_frees () =
  let heap = Ralloc.create ~name:"ebr" ~size:(4 * mb) () in
  let ebr = Ebr.create heap in
  let va = Ralloc.malloc heap 64 in
  Ebr.retire ebr va;
  Alcotest.(check int) "pending" 1 (Ebr.pending ebr);
  Ebr.flush ebr;
  Alcotest.(check int) "freed after flush" 0 (Ebr.pending ebr);
  (* the block is genuinely back in circulation *)
  let again = Ralloc.malloc heap 64 in
  Alcotest.(check int) "block reused" va again

let test_pin_blocks_reclamation () =
  let heap = Ralloc.create ~name:"ebr2" ~size:(4 * mb) () in
  let ebr = Ebr.create heap in
  let reader_pinned = Atomic.make false in
  let release = Atomic.make false in
  let reader =
    Domain.spawn (fun () ->
        Ebr.pin ebr;
        Atomic.set reader_pinned true;
        while not (Atomic.get release) do
          Domain.cpu_relax ()
        done;
        Ebr.unpin ebr)
  in
  while not (Atomic.get reader_pinned) do
    Domain.cpu_relax ()
  done;
  (* the reader is pinned in the current epoch: a block retired NOW must
     not be freed while it stays pinned *)
  let va = Ralloc.malloc heap 64 in
  Ebr.retire ebr va;
  Ebr.flush ebr;
  Ebr.flush ebr;
  Alcotest.(check int) "still deferred under a pinned reader" 1
    (Ebr.pending ebr);
  Atomic.set release true;
  Domain.join reader;
  Ebr.flush ebr;
  Alcotest.(check int) "freed once the reader unpins" 0 (Ebr.pending ebr)

let test_nested_pin () =
  let heap = Ralloc.create ~name:"ebr3" ~size:(4 * mb) () in
  let ebr = Ebr.create heap in
  Ebr.pin ebr;
  Ebr.pin ebr;
  Ebr.unpin ebr;
  (* still pinned: epoch must not advance past us *)
  let e0 = Ebr.epoch ebr in
  let va = Ralloc.malloc heap 64 in
  Ebr.retire ebr va;
  Ebr.flush ebr;
  Alcotest.(check bool) "epoch held back" true (Ebr.epoch ebr <= e0 + 1);
  Ebr.unpin ebr;
  Ebr.flush ebr;
  Alcotest.(check int) "reclaimed after full unpin" 0 (Ebr.pending ebr)

let test_protect_exception_safety () =
  let heap = Ralloc.create ~name:"ebr4" ~size:(4 * mb) () in
  let ebr = Ebr.create heap in
  (try Ebr.protect ebr (fun () -> raise Exit) with Exit -> ());
  (* if the pin leaked, this flush could never reclaim *)
  let va = Ralloc.malloc heap 64 in
  Ebr.retire ebr va;
  Ebr.flush ebr;
  Alcotest.(check int) "unpinned despite exception" 0 (Ebr.pending ebr)

(* Concurrent push/pop with reclamation ON: payloads must never be
   corrupted (use-after-free of a node would surface as a wrong value
   since freed blocks are instantly reusable). *)
let test_stack_churn_with_smr () =
  let heap = Ralloc.create ~name:"ebr5" ~size:(32 * mb) () in
  let ebr = Ebr.create heap in
  let stack = Dstruct.Pstack.create heap ~root:0 in
  let threads = 4 and per = 4000 in
  let bad = Atomic.make 0 and popped = Atomic.make 0 in
  let ds =
    List.init threads (fun tid ->
        Domain.spawn (fun () ->
            for i = 1 to per do
              ignore (Dstruct.Pstack.push_safe stack ebr ((tid * per) + i));
              if i land 1 = 0 then
                match Dstruct.Pstack.pop_safe stack ebr with
                | Some v ->
                  Atomic.incr popped;
                  if v <= 0 || v > threads * per * 2 then Atomic.incr bad
                | None -> ()
            done;
            Ebr.flush ebr;
            Ralloc.flush_thread_cache heap))
  in
  List.iter Domain.join ds;
  Alcotest.(check int) "no corrupted payloads" 0 (Atomic.get bad);
  Alcotest.(check int) "conservation of elements"
    (threads * per)
    (Atomic.get popped + Dstruct.Pstack.length stack)

(* Long-running churn must not grow memory: EBR actually recycles. *)
let test_memory_bounded_under_churn () =
  let heap = Ralloc.create ~name:"ebr6" ~size:(8 * mb) () in
  let ebr = Ebr.create heap in
  let stack = Dstruct.Pstack.create heap ~root:0 in
  (* push/pop far more elements than the heap could hold un-recycled *)
  for i = 1 to 200_000 do
    if not (Dstruct.Pstack.push_safe stack ebr i) then
      Alcotest.failf "heap exhausted at %d: EBR failed to recycle" i;
    ignore (Dstruct.Pstack.pop_safe stack ebr)
  done;
  Ebr.flush ebr;
  Ralloc.flush_thread_cache heap;
  let live = (Ralloc.census heap).Ralloc.Census.allocated_blocks in
  Alcotest.(check bool)
    (Printf.sprintf "live blocks small (%d)" live)
    true (live < 1000)

let test_nmtree_with_smr () =
  let heap = Ralloc.create ~name:"ebr7" ~size:(32 * mb) () in
  let ebr = Ebr.create heap in
  let tree = Dstruct.Nmtree.create ~smr:ebr heap ~root:0 in
  let threads = 4 and range = 512 in
  let ds =
    List.init threads (fun tid ->
        Domain.spawn (fun () ->
            let rng = Random.State.make [| tid + 99 |] in
            for _ = 1 to 4000 do
              let k = Random.State.int rng range in
              if Random.State.bool rng then
                ignore (Dstruct.Nmtree.insert tree k k)
              else ignore (Dstruct.Nmtree.delete tree k)
            done;
            Ebr.flush ebr;
            Ralloc.flush_thread_cache heap))
  in
  List.iter Domain.join ds;
  Dstruct.Nmtree.check_invariants tree;
  (* every surviving key maps to itself: reclaimed nodes never leaked into
     the live tree *)
  Dstruct.Nmtree.iter
    (fun k v -> Alcotest.(check int) "value integrity" k v)
    tree;
  Ebr.flush ebr;
  Ralloc.flush_thread_cache heap;
  (* ~16k nodes were allocated in total; without reclamation they would
     all still be live.  Worker limbo lists that never drained stay
     allocated — that is the design — so the bound is loose here and the
     exact accounting is done by the GC below. *)
  let allocated = (Ralloc.census heap).Ralloc.Census.allocated_blocks in
  Alcotest.(check bool)
    (Printf.sprintf "EBR recycled under churn (%d allocated)" allocated)
    true (allocated < 10_000);
  (* a crash turns the stranded limbo entries into garbage: afterwards
     exactly the live tree remains *)
  let live = Dstruct.Nmtree.size tree in
  let heap, _ = Ralloc.crash_and_reopen heap in
  ignore (Ralloc.get_root ~filter:(Dstruct.Nmtree.filter heap) heap 0);
  let stats = Ralloc.recover heap in
  (* live leaves + internal routing nodes + 5 sentinels/root structure *)
  Alcotest.(check bool)
    (Printf.sprintf "GC collects limbo leftovers (%d reachable for %d keys)"
       stats.reachable_blocks live)
    true
    (stats.reachable_blocks <= (2 * live) + 5)

(* A crash strands limbo entries; the next recovery collects them. *)
let test_crash_reclaims_limbo () =
  let heap = Ralloc.create ~name:"ebr8" ~size:(4 * mb) () in
  let ebr = Ebr.create heap in
  let keeper = Ralloc.malloc heap 64 in
  Ralloc.flush_block_range heap keeper 64;
  Ralloc.fence heap;
  Ralloc.set_root heap 0 keeper;
  (* retire a pile of blocks but never reach a quiescent flush *)
  for _ = 1 to 40 do
    Ebr.retire ebr (Ralloc.malloc heap 1024)
  done;
  let heap, _ = Ralloc.crash_and_reopen heap in
  ignore (Ralloc.get_root heap 0);
  let stats = Ralloc.recover heap in
  Alcotest.(check int) "only the rooted block survives" 1
    stats.reachable_blocks

let () =
  Alcotest.run "smr"
    [
      ( "ebr",
        [
          Alcotest.test_case "retire defers then frees" `Quick
            test_retire_defers_then_frees;
          Alcotest.test_case "pin blocks reclamation" `Quick
            test_pin_blocks_reclamation;
          Alcotest.test_case "nested pin" `Quick test_nested_pin;
          Alcotest.test_case "protect is exception safe" `Quick
            test_protect_exception_safety;
        ] );
      ( "integration",
        [
          Alcotest.test_case "stack churn" `Slow test_stack_churn_with_smr;
          Alcotest.test_case "memory bounded" `Slow
            test_memory_bounded_under_churn;
          Alcotest.test_case "nmtree with smr" `Slow test_nmtree_with_smr;
          Alcotest.test_case "crash reclaims limbo" `Quick
            test_crash_reclaims_limbo;
        ] );
    ]
