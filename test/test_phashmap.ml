(* Tests for the persistent position-independent hash map: semantics,
   concurrency, and crash recovery with its filter function. *)

let mb = 1 lsl 20

let with_map ?(size = 16 * mb) ?(buckets = 64) f =
  let heap = Ralloc.create ~name:"phm" ~size () in
  let m = Dstruct.Phashmap.create ~reclaim:true heap ~root:0 ~buckets in
  f heap m

let test_basic () =
  with_map (fun _ m ->
      Alcotest.(check bool) "fresh" true (Dstruct.Phashmap.set m "a" "1");
      Alcotest.(check bool) "update" false (Dstruct.Phashmap.set m "a" "2");
      Alcotest.(check (option string)) "newest wins" (Some "2")
        (Dstruct.Phashmap.get m "a");
      Alcotest.(check (option string)) "absent" None (Dstruct.Phashmap.get m "b");
      Alcotest.(check int) "length" 1 (Dstruct.Phashmap.length m);
      Alcotest.(check bool) "delete" true (Dstruct.Phashmap.delete m "a");
      Alcotest.(check bool) "delete absent" false (Dstruct.Phashmap.delete m "a");
      Alcotest.(check int) "empty" 0 (Dstruct.Phashmap.length m))

let test_many_keys () =
  with_map ~buckets:256 (fun _ m ->
      let n = 2000 in
      for i = 0 to n - 1 do
        ignore (Dstruct.Phashmap.set m (Printf.sprintf "k%d" i) (Printf.sprintf "v%d" i))
      done;
      Alcotest.(check int) "length" n (Dstruct.Phashmap.length m);
      for i = 0 to n - 1 do
        Alcotest.(check (option string))
          (Printf.sprintf "k%d" i)
          (Some (Printf.sprintf "v%d" i))
          (Dstruct.Phashmap.get m (Printf.sprintf "k%d" i))
      done;
      (* overwrite everything; values must change, length must not *)
      for i = 0 to n - 1 do
        ignore (Dstruct.Phashmap.set m (Printf.sprintf "k%d" i) "new")
      done;
      Alcotest.(check int) "length stable" n (Dstruct.Phashmap.length m);
      Alcotest.(check (option string)) "updated" (Some "new")
        (Dstruct.Phashmap.get m "k1234"))

let test_iter_sees_live_bindings () =
  with_map (fun _ m ->
      ignore (Dstruct.Phashmap.set m "x" "1");
      ignore (Dstruct.Phashmap.set m "y" "2");
      ignore (Dstruct.Phashmap.set m "x" "3");
      ignore (Dstruct.Phashmap.set m "z" "4");
      ignore (Dstruct.Phashmap.delete m "z");
      let seen = Hashtbl.create 8 in
      Dstruct.Phashmap.iter (fun k v -> Hashtbl.replace seen k v) m;
      Alcotest.(check int) "two live keys" 2 (Hashtbl.length seen);
      Alcotest.(check (option string)) "x newest" (Some "3")
        (Hashtbl.find_opt seen "x");
      Alcotest.(check (option string)) "y" (Some "2") (Hashtbl.find_opt seen "y"))

let test_binary_values () =
  with_map (fun _ m ->
      let v = String.init 1000 (fun i -> Char.chr (i mod 256)) in
      ignore (Dstruct.Phashmap.set m "bin" v);
      Alcotest.(check (option string)) "binary value intact" (Some v)
        (Dstruct.Phashmap.get m "bin"))

let test_empty_strings () =
  with_map (fun _ m ->
      Alcotest.(check bool) "empty key" true (Dstruct.Phashmap.set m "" "v");
      Alcotest.(check bool) "empty value" true (Dstruct.Phashmap.set m "k" "");
      Alcotest.(check (option string)) "get empty key" (Some "v")
        (Dstruct.Phashmap.get m "");
      Alcotest.(check (option string)) "get empty value" (Some "")
        (Dstruct.Phashmap.get m "k");
      Alcotest.(check bool) "delete empty key" true
        (Dstruct.Phashmap.delete m "");
      Alcotest.(check int) "length" 1 (Dstruct.Phashmap.length m))

let allocated heap =
  Ralloc.flush_thread_cache heap;
  (Ralloc.census heap).Ralloc.Census.allocated_blocks

(* With [~reclaim:true], an update retires the previous binding's node and
   both its strings. *)
let test_update_churn_bounded () =
  with_map (fun heap m ->
      for i = 0 to 99 do
        ignore (Dstruct.Phashmap.set m (Printf.sprintf "k%d" i) "0")
      done;
      let full = allocated heap in
      for round = 1 to 50 do
        for i = 0 to 99 do
          ignore
            (Dstruct.Phashmap.set m (Printf.sprintf "k%d" i) (string_of_int round))
        done
      done;
      Alcotest.(check int) "steady state" full (allocated heap);
      Alcotest.(check (option string)) "newest" (Some "50")
        (Dstruct.Phashmap.get m "k7"))

let test_delete_frees_all () =
  with_map (fun heap m ->
      let before = allocated heap in
      for i = 0 to 299 do
        ignore (Dstruct.Phashmap.set m (Printf.sprintf "k%d" i) (String.make 40 'v'))
      done;
      for i = 0 to 299 do
        ignore (Dstruct.Phashmap.delete m (Printf.sprintf "k%d" i))
      done;
      Alcotest.(check int) "node and strings freed" before (allocated heap);
      Alcotest.(check int) "empty" 0 (Dstruct.Phashmap.length m))

let test_clean_restart () =
  let path = Filename.temp_file "phashmap" "heap" in
  Sys.remove path;
  let heap, _ = Ralloc.init ~path ~size:(4 * mb) () in
  let m = Dstruct.Phashmap.create heap ~root:0 ~buckets:64 in
  for i = 0 to 199 do
    ignore (Dstruct.Phashmap.set m (Printf.sprintf "k%d" i) (string_of_int (i * 3)))
  done;
  Ralloc.close heap;
  let heap, status = Ralloc.init ~path ~size:(4 * mb) () in
  Alcotest.(check bool) "clean restart" true (status = Ralloc.Clean_restart);
  let m = Dstruct.Phashmap.attach heap ~root:0 in
  Alcotest.(check int) "length" 200 (Dstruct.Phashmap.length m);
  Alcotest.(check (option string)) "value" (Some "300")
    (Dstruct.Phashmap.get m "k100");
  Alcotest.(check bool) "usable" true (Dstruct.Phashmap.set m "new" "x");
  Ralloc.close heap;
  List.iter (fun ext -> Sys.remove (path ^ ext)) [ ".meta"; ".desc"; ".sb" ]

let test_crash_recovery () =
  let heap = Ralloc.create ~name:"phm-crash" ~size:(32 * mb) () in
  let m = Dstruct.Phashmap.create heap ~root:0 ~buckets:128 in
  let n = 500 in
  for i = 0 to n - 1 do
    ignore (Dstruct.Phashmap.set m (Printf.sprintf "key%d" i) (Printf.sprintf "val%d" i))
  done;
  (* update some, delete some: recovery must see the final state *)
  for i = 0 to 99 do
    ignore (Dstruct.Phashmap.set m (Printf.sprintf "key%d" i) "updated")
  done;
  for i = 100 to 149 do
    ignore (Dstruct.Phashmap.delete m (Printf.sprintf "key%d" i))
  done;
  let heap, status = Ralloc.crash_and_reopen heap in
  Alcotest.(check bool) "dirty" true (status = Ralloc.Dirty_restart);
  let m = Dstruct.Phashmap.attach heap ~root:0 in
  ignore (Ralloc.recover heap);
  Alcotest.(check (option string)) "updated key" (Some "updated")
    (Dstruct.Phashmap.get m "key42");
  Alcotest.(check (option string)) "deleted key" None
    (Dstruct.Phashmap.get m "key120");
  Alcotest.(check (option string)) "untouched key" (Some "val300")
    (Dstruct.Phashmap.get m "key300");
  (* store is fully usable after recovery *)
  Alcotest.(check bool) "set after recovery" true
    (Dstruct.Phashmap.set m "post-crash" "ok");
  Alcotest.(check (option string)) "readable" (Some "ok")
    (Dstruct.Phashmap.get m "post-crash")

let test_filter_tames_string_data () =
  (* store values that are bit-for-bit valid off-holder words; the map's
     filter must keep the collector from chasing them *)
  let heap = Ralloc.create ~name:"phm-filter" ~size:(16 * mb) () in
  let m = Dstruct.Phashmap.create heap ~root:0 ~buckets:32 in
  let decoy = Ralloc.malloc heap 4096 in
  ignore decoy;
  let evil = Bytes.create 8 in
  Bytes.set_int64_le evil 0
    (Int64.of_int (Pptr.encode ~holder:0 ~target:8));
  for i = 0 to 49 do
    ignore (Dstruct.Phashmap.set m (Printf.sprintf "k%d" i) (Bytes.to_string evil))
  done;
  let heap, _ = Ralloc.crash_and_reopen heap in
  let m = Dstruct.Phashmap.attach heap ~root:0 in
  let stats = Ralloc.recover heap in
  (* header + table + 50 * (node + key + value) = 152 blocks; the decoy and
     anything the fake pointers "pointed at" must be gone *)
  Alcotest.(check int) "exactly the map's blocks survive" 152
    stats.reachable_blocks;
  Alcotest.(check (option string)) "values intact" (Some (Bytes.to_string evil))
    (Dstruct.Phashmap.get m "k7")

let test_concurrent_mixed () =
  let heap = Ralloc.create ~name:"phm-conc" ~size:(64 * mb) () in
  (* reclaim off: concurrent domains must not free under each other *)
  let m = Dstruct.Phashmap.create heap ~root:0 ~buckets:512 in
  let threads = 4 and per = 1500 in
  let ds =
    List.init threads (fun tid ->
        Domain.spawn (fun () ->
            let rng = Random.State.make [| tid |] in
            for i = 0 to per - 1 do
              let k = Printf.sprintf "t%d-%d" tid (i mod 200) in
              match Random.State.int rng 3 with
              | 0 -> ignore (Dstruct.Phashmap.set m k (string_of_int i))
              | 1 -> ignore (Dstruct.Phashmap.get m k)
              | _ -> ignore (Dstruct.Phashmap.delete m k)
            done;
            Ralloc.flush_thread_cache heap))
  in
  List.iter Domain.join ds;
  (* keys are per-thread, so the final state per key is that thread's last
     operation; just validate the structure is coherent *)
  Dstruct.Phashmap.iter
    (fun k v ->
      Alcotest.(check bool) ("key shape " ^ k) true (String.length k >= 4);
      ignore v)
    m

let test_same_key_contention () =
  let heap = Ralloc.create ~name:"phm-hot" ~size:(64 * mb) () in
  let m = Dstruct.Phashmap.create heap ~root:0 ~buckets:16 in
  let threads = 4 and per = 500 in
  let ds =
    List.init threads (fun tid ->
        Domain.spawn (fun () ->
            for i = 0 to per - 1 do
              ignore (Dstruct.Phashmap.set m "hot" (Printf.sprintf "%d-%d" tid i))
            done;
            Ralloc.flush_thread_cache heap))
  in
  List.iter Domain.join ds;
  (* exactly one live binding remains, holding some thread's last write *)
  (match Dstruct.Phashmap.get m "hot" with
  | Some v ->
    Alcotest.(check bool) ("final value plausible: " ^ v) true
      (String.contains v '-')
  | None -> Alcotest.fail "hot key vanished");
  let live = ref 0 in
  Dstruct.Phashmap.iter (fun k _ -> if String.equal k "hot" then incr live) m;
  Alcotest.(check int) "one live binding" 1 !live

(* Exhausting the heap mid-set must not strand the node or the key string
   already taken: the offline audit of the closed image, tracing through
   the map's own filter, finds nothing the map cannot reach.  Values sit
   in a class 16 to a superblock, so the value is what runs out. *)
let test_oom_frees_partial_set () =
  let path = Filename.temp_file "phashmap" "heap" in
  Sys.remove path;
  let heap, _ = Ralloc.init ~path ~size:(512 * 1024) () in
  let m = Dstruct.Phashmap.create heap ~root:0 ~buckets:64 in
  let value = String.make 4000 'v' in
  let n = ref 0 in
  (try
     while true do
       ignore (Dstruct.Phashmap.set m (Printf.sprintf "k%d" !n) value);
       incr n
     done
   with Failure _ -> ());
  Ralloc.close heap;
  let img, _ = Ralloc.open_image ~path in
  let m = Dstruct.Phashmap.attach img ~root:0 in
  ignore (Ralloc.get_root ~filter:(Dstruct.Phashmap.filter img) img 0);
  let a = Ralloc.audit img in
  List.iter (fun ext -> Sys.remove (path ^ ext)) [ ".meta"; ".desc"; ".sb" ];
  Alcotest.(check int) "bindings survive" !n (Dstruct.Phashmap.length m);
  Alcotest.(check int) "no leaked blocks" 0 a.Ralloc.Audit.leaked_blocks;
  Alcotest.(check bool) "consistent" true a.Ralloc.Audit.consistent

let () =
  Alcotest.run "phashmap"
    [
      ( "semantics",
        [
          Alcotest.test_case "basic" `Quick test_basic;
          Alcotest.test_case "many keys" `Quick test_many_keys;
          Alcotest.test_case "iter live bindings" `Quick
            test_iter_sees_live_bindings;
          Alcotest.test_case "binary values" `Quick test_binary_values;
          Alcotest.test_case "empty strings" `Quick test_empty_strings;
          Alcotest.test_case "update churn bounded" `Quick
            test_update_churn_bounded;
          Alcotest.test_case "delete frees all" `Quick test_delete_frees_all;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "crash recovery" `Quick test_crash_recovery;
          Alcotest.test_case "clean restart" `Quick test_clean_restart;
          Alcotest.test_case "filter tames string data" `Quick
            test_filter_tames_string_data;
          Alcotest.test_case "OOM frees a partial set" `Quick
            test_oom_frees_partial_set;
        ] );
      ( "concurrency",
        [
          Alcotest.test_case "mixed ops" `Slow test_concurrent_mixed;
          Alcotest.test_case "same-key contention" `Slow
            test_same_key_contention;
        ] );
    ]
