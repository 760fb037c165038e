(* Cross-structure property tests: model conformance under random
   operation sequences, and durability of completed operations across
   crashes at random points under varying cache-eviction behaviour. *)

let mb = 1 lsl 20

(* ---------------- Pstack vs LIFO model ---------------- *)

let prop_pstack_lifo =
  QCheck2.Test.make ~name:"pstack behaves like a LIFO stack" ~count:30
    QCheck2.Gen.(list_size (int_range 10 300) (option (int_bound 10_000)))
    (fun program ->
      let heap = Ralloc.create ~name:"prop-s" ~size:(8 * mb) () in
      let s = Dstruct.Pstack.create heap ~root:0 in
      let model = Stack.create () in
      List.for_all
        (fun op ->
          match op with
          | Some v ->
            Stack.push v model;
            Dstruct.Pstack.push s v
          | None -> (
            match (Dstruct.Pstack.pop_free s, Stack.pop_opt model) with
            | None, None -> true
            | Some a, Some b -> a = b
            | _ -> false))
        program
      && Dstruct.Pstack.length s = Stack.length model)

(* ---------------- maps vs their models ---------------- *)

module IM = Map.Make (Int)

let nmtree_bindings t =
  let acc = ref [] in
  Dstruct.Nmtree.iter (fun k v -> acc := (k, v) :: !acc) t;
  List.rev !acc

let phashmap_bindings m =
  let acc = ref [] in
  Dstruct.Phashmap.iter (fun k v -> acc := (k, v) :: !acc) m;
  List.sort compare !acc

let model_bindings model =
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) model [])

(* op 0 = insert (no overwrite), 1 = delete, 2 = find *)
let prop_nmtree_map =
  QCheck2.Test.make ~name:"nmtree behaves like an ordered map" ~count:30
    QCheck2.Gen.(
      list_size (int_range 10 300)
        (triple (int_bound 2) (int_bound 100) (int_bound 10_000)))
    (fun program ->
      let heap = Ralloc.create ~name:"prop-nm" ~size:(8 * mb) () in
      let t = Dstruct.Nmtree.create ~reclaim:true heap ~root:0 in
      let model = ref IM.empty in
      List.for_all
        (fun (op, k, v) ->
          match op with
          | 0 ->
            let fresh = not (IM.mem k !model) in
            if fresh then model := IM.add k v !model;
            Dstruct.Nmtree.insert t k v = fresh
          | 1 ->
            let present = IM.mem k !model in
            model := IM.remove k !model;
            Dstruct.Nmtree.delete t k = present
          | _ -> Dstruct.Nmtree.find t k = IM.find_opt k !model)
        program
      && nmtree_bindings t = IM.bindings !model)

(* op 0 = set (overwrites), 1 = delete, 2 = get *)
let prop_phashmap_map =
  QCheck2.Test.make ~name:"phashmap behaves like a map" ~count:30
    QCheck2.Gen.(
      list_size (int_range 10 300)
        (triple (int_bound 2) (int_bound 50) (int_bound 10_000)))
    (fun program ->
      let heap = Ralloc.create ~name:"prop-hm" ~size:(16 * mb) () in
      let m = Dstruct.Phashmap.create ~reclaim:true heap ~root:0 ~buckets:16 in
      let model = Hashtbl.create 64 in
      List.for_all
        (fun (op, k, v) ->
          let key = "key" ^ string_of_int k in
          match op with
          | 0 ->
            let fresh = not (Hashtbl.mem model key) in
            Hashtbl.replace model key (string_of_int v);
            Dstruct.Phashmap.set m key (string_of_int v) = fresh
          | 1 ->
            let present = Hashtbl.mem model key in
            Hashtbl.remove model key;
            Dstruct.Phashmap.delete m key = present
          | _ -> Dstruct.Phashmap.get m key = Hashtbl.find_opt model key)
        program
      && phashmap_bindings m = model_bindings model)

(* ------------- durability: completed sets survive crashes ------------- *)

let prop_phashmap_durable =
  QCheck2.Test.make ~name:"phashmap: completed sets survive any crash"
    ~count:15
    QCheck2.Gen.(
      pair
        (list_size (int_range 5 120) (pair (int_bound 30) (int_bound 1000)))
        (int_bound 2))
    (fun (ops, noise) ->
      let heap = Ralloc.create ~name:"prop-h" ~size:(16 * mb) () in
      Ralloc.set_eviction_rate heap (float_of_int noise *. 0.25);
      let m = Dstruct.Phashmap.create heap ~root:0 ~buckets:32 in
      let model = Hashtbl.create 16 in
      List.iter
        (fun (k, v) ->
          let key = "key" ^ string_of_int k in
          ignore (Dstruct.Phashmap.set m key (string_of_int v));
          Hashtbl.replace model key (string_of_int v))
        ops;
      let heap, _ = Ralloc.crash_and_reopen heap in
      let m = Dstruct.Phashmap.attach heap ~root:0 in
      ignore (Ralloc.recover heap);
      Hashtbl.fold
        (fun k v acc -> acc && Dstruct.Phashmap.get m k = Some v)
        model true)

let prop_nmtree_durable =
  QCheck2.Test.make
    ~name:"nmtree: completed inserts and deletes survive any crash" ~count:15
    QCheck2.Gen.(
      pair (list_size (int_range 5 200) (pair bool (int_bound 60))) (int_bound 2))
    (fun (ops, noise) ->
      let heap = Ralloc.create ~name:"prop-nmd" ~size:(8 * mb) () in
      Ralloc.set_eviction_rate heap (float_of_int noise *. 0.25);
      let t = Dstruct.Nmtree.create ~reclaim:true heap ~root:0 in
      let model = ref IM.empty in
      List.iter
        (fun (insert, k) ->
          if insert then begin
            if Dstruct.Nmtree.insert t k (k * 7) then
              model := IM.add k (k * 7) !model
          end
          else if Dstruct.Nmtree.delete t k then model := IM.remove k !model)
        ops;
      let heap, _ = Ralloc.crash_and_reopen heap in
      let t = Dstruct.Nmtree.attach ~reclaim:true heap ~root:0 in
      ignore (Ralloc.recover heap);
      Dstruct.Nmtree.check_invariants t;
      nmtree_bindings t = IM.bindings !model)

let prop_phashmap_deletes_durable =
  QCheck2.Test.make
    ~name:"phashmap: completed sets and deletes survive any crash" ~count:15
    QCheck2.Gen.(
      pair
        (list_size (int_range 5 150)
           (triple bool (int_bound 30) (int_bound 1000)))
        (int_bound 2))
    (fun (ops, noise) ->
      let heap = Ralloc.create ~name:"prop-hd" ~size:(16 * mb) () in
      Ralloc.set_eviction_rate heap (float_of_int noise *. 0.25);
      let m = Dstruct.Phashmap.create ~reclaim:true heap ~root:0 ~buckets:16 in
      let model = Hashtbl.create 16 in
      List.iter
        (fun (set, k, v) ->
          let key = "key" ^ string_of_int k in
          if set then begin
            ignore (Dstruct.Phashmap.set m key (string_of_int v));
            Hashtbl.replace model key (string_of_int v)
          end
          else begin
            ignore (Dstruct.Phashmap.delete m key);
            Hashtbl.remove model key
          end)
        ops;
      let heap, _ = Ralloc.crash_and_reopen heap in
      let m = Dstruct.Phashmap.attach ~reclaim:true heap ~root:0 in
      ignore (Ralloc.recover heap);
      phashmap_bindings m = model_bindings model)

(* Some v = push v, None = pop *)
let prop_pstack_durable =
  QCheck2.Test.make ~name:"pstack: completed pushes and pops survive any crash"
    ~count:15
    QCheck2.Gen.(
      pair
        (list_size (int_range 5 300) (option (int_bound 10_000)))
        (int_bound 2))
    (fun (ops, noise) ->
      let heap = Ralloc.create ~name:"prop-sd" ~size:(8 * mb) () in
      Ralloc.set_eviction_rate heap (float_of_int noise *. 0.25);
      let s = Dstruct.Pstack.create heap ~root:0 in
      let model =
        List.fold_left
          (fun model op ->
            match (op, model) with
            | Some v, _ ->
              ignore (Dstruct.Pstack.push s v);
              v :: model
            | None, [] -> model
            | None, _ :: rest ->
              ignore (Dstruct.Pstack.pop_free s);
              rest)
          [] ops
      in
      let heap, _ = Ralloc.crash_and_reopen heap in
      let s = Dstruct.Pstack.attach heap ~root:0 in
      let stats = Ralloc.recover heap in
      let acc = ref [] in
      Dstruct.Pstack.iter (fun v -> acc := v :: !acc) s;
      List.rev !acc = model
      && stats.reachable_blocks = List.length model + 1)

(* Transfers among four accounts, some refused (insufficient funds), and
   optionally a last one whose commit record is durable but never
   applied: after the crash, the accounts hold exactly the committed
   transfers. *)
let prop_txn_durable =
  QCheck2.Test.make ~name:"txn: committed transfers survive any crash"
    ~count:15
    QCheck2.Gen.(
      triple
        (list_size (int_range 1 60)
           (triple (int_bound 3) (int_bound 3) (int_bound 300)))
        (int_bound 2) bool)
    (fun (transfers, noise, pending) ->
      let heap = Ralloc.create ~name:"prop-txn" ~size:(16 * mb) () in
      Ralloc.set_eviction_rate heap (float_of_int noise *. 0.25);
      let mgr = Txn.create heap ~root:0 in
      let accounts = Ralloc.malloc heap 32 in
      let model = Array.make 4 250 in
      Array.iteri (fun i v -> Ralloc.store heap (accounts + (8 * i)) v) model;
      Ralloc.flush_block_range heap accounts 32;
      Ralloc.fence heap;
      Ralloc.set_root heap 1 accounts;
      let transfer tx (src, dst, amount) =
        let s = Txn.load tx (accounts + (8 * src)) in
        if s < amount then Txn.abort ();
        Txn.store tx (accounts + (8 * src)) (s - amount);
        let d = Txn.load tx (accounts + (8 * dst)) in
        Txn.store tx (accounts + (8 * dst)) (d + amount)
      in
      let apply_model (src, dst, amount) =
        if model.(src) >= amount then begin
          model.(src) <- model.(src) - amount;
          model.(dst) <- model.(dst) + amount
        end
      in
      List.iter
        (fun tr ->
          (try Txn.run mgr (fun tx -> transfer tx tr) with Txn.Abort -> ());
          apply_model tr)
        transfers;
      if pending then begin
        let tr = (0, 1, min model.(0) 10) in
        Txn.Private.commit_record_only mgr (fun tx -> transfer tx tr);
        apply_model tr
      end;
      let heap, _ = Ralloc.crash_and_reopen heap in
      ignore (Txn.attach heap ~root:0);
      ignore (Ralloc.get_root heap 1);
      ignore (Ralloc.recover heap);
      let accounts = Ralloc.get_root heap 1 in
      Array.for_all Fun.id
        (Array.mapi
           (fun i v -> Ralloc.load heap (accounts + (8 * i)) = v)
           model))

(* The paper's recoverability criterion end to end: after a crash at a
   random point under eviction noise, recovery through every structure's
   filter leaves all and only the reachable blocks allocated. *)
let prop_recovery_audit_clean =
  QCheck2.Test.make
    ~name:"recovery leaves all and only the reachable blocks allocated"
    ~count:10
    QCheck2.Gen.(
      pair
        (list_size (int_range 10 300) (pair (int_bound 5) (int_bound 40)))
        (int_bound 2))
    (fun (ops, noise) ->
      let heap = Ralloc.create ~name:"prop-audit" ~size:(16 * mb) () in
      Ralloc.set_eviction_rate heap (float_of_int noise *. 0.25);
      let stack = Dstruct.Pstack.create heap ~root:0 in
      let tree = Dstruct.Nmtree.create ~reclaim:true heap ~root:2 in
      let map = Dstruct.Phashmap.create ~reclaim:true heap ~root:5 ~buckets:16 in
      List.iter
        (fun (op, k) ->
          match op with
          | 0 -> ignore (Dstruct.Pstack.push stack k)
          | 1 -> ignore (Dstruct.Pstack.pop_free stack)
          | 2 -> ignore (Dstruct.Nmtree.insert tree k k)
          | 3 -> ignore (Dstruct.Nmtree.delete tree k)
          | 4 -> ignore (Dstruct.Phashmap.set map (string_of_int k) "v")
          | _ -> ignore (Dstruct.Phashmap.delete map (string_of_int k)))
        ops;
      let heap, _ = Ralloc.crash_and_reopen heap in
      ignore (Dstruct.Pstack.attach heap ~root:0);
      ignore (Dstruct.Nmtree.attach ~reclaim:true heap ~root:2);
      ignore (Dstruct.Phashmap.attach ~reclaim:true heap ~root:5);
      ignore (Ralloc.recover heap);
      let a = Ralloc.audit heap in
      a.Ralloc.Audit.consistent
      && a.Ralloc.Audit.leaked_blocks = 0
      && a.Ralloc.Audit.orphaned_blocks = 0)

(* -------- recovery is idempotent and eviction-rate independent -------- *)

let prop_recovery_idempotent =
  QCheck2.Test.make ~name:"recover twice finds the same state" ~count:15
    QCheck2.Gen.(int_range 1 500)
    (fun n ->
      let heap = Ralloc.create ~name:"prop-r" ~size:(8 * mb) () in
      let s = Dstruct.Pstack.create heap ~root:0 in
      for i = 1 to n do
        ignore (Dstruct.Pstack.push s i)
      done;
      let heap, _ = Ralloc.crash_and_reopen heap in
      ignore (Dstruct.Pstack.attach heap ~root:0);
      let a = (Ralloc.recover heap).reachable_blocks in
      let heap, _ = Ralloc.crash_and_reopen heap in
      ignore (Dstruct.Pstack.attach heap ~root:0);
      let b = (Ralloc.recover heap).reachable_blocks in
      a = b && a = n + 1)

let test_eviction_rate_sweep () =
  (* recovery must reach the same answer whatever the cache decided to
     write back on its own *)
  List.iter
    (fun rate ->
      let heap = Ralloc.create ~name:"sweep" ~size:(8 * mb) () in
      Ralloc.set_eviction_rate heap rate;
      let s = Dstruct.Pstack.create heap ~root:0 in
      for i = 1 to 500 do
        ignore (Dstruct.Pstack.push s i)
      done;
      let heap, _ = Ralloc.crash_and_reopen heap in
      let s = Dstruct.Pstack.attach heap ~root:0 in
      let stats = Ralloc.recover heap in
      Alcotest.(check int)
        (Printf.sprintf "rate %.2f: reachable" rate)
        501 stats.reachable_blocks;
      Alcotest.(check int)
        (Printf.sprintf "rate %.2f: length" rate)
        500 (Dstruct.Pstack.length s))
    [ 0.0; 0.05; 0.5; 1.0 ]

(* every persistent structure co-resident in one heap, one crash: the
   allocator-managed structures next to a transaction manager whose last
   transfer has a durable commit record but was never applied *)
let test_cohabiting_structures () =
  let heap = Ralloc.create ~name:"cohabit" ~size:(32 * mb) () in
  let stack = Dstruct.Pstack.create heap ~root:0 in
  let mgr = Txn.create heap ~root:1 in
  let tree = Dstruct.Nmtree.create heap ~root:2 in
  let map = Dstruct.Phashmap.create heap ~root:5 ~buckets:64 in
  let accounts = Ralloc.malloc heap 16 in
  Ralloc.store heap accounts 1000;
  Ralloc.store heap (accounts + 8) 0;
  Ralloc.flush_block_range heap accounts 16;
  Ralloc.fence heap;
  Ralloc.set_root heap 3 accounts;
  let transfer run amount =
    run (fun tx ->
        Txn.store tx accounts (Txn.load tx accounts - amount);
        Txn.store tx (accounts + 8) (Txn.load tx (accounts + 8) + amount))
  in
  for i = 1 to 200 do
    ignore (Dstruct.Pstack.push stack i);
    ignore (Dstruct.Nmtree.insert tree i i);
    ignore (Dstruct.Phashmap.set map (string_of_int i) (string_of_int (i * 2)));
    transfer (Txn.run mgr) 1
  done;
  transfer (Txn.Private.commit_record_only mgr) 50;
  let heap, _ = Ralloc.crash_and_reopen heap in
  let stack = Dstruct.Pstack.attach heap ~root:0 in
  ignore (Txn.attach heap ~root:1 (* replays the last transfer *));
  let tree = Dstruct.Nmtree.attach heap ~root:2 in
  let map = Dstruct.Phashmap.attach heap ~root:5 in
  ignore (Ralloc.get_root heap 3);
  ignore (Ralloc.recover heap);
  let accounts = Ralloc.get_root heap 3 in
  Alcotest.(check int) "stack" 200 (Dstruct.Pstack.length stack);
  Alcotest.(check int) "tree" 200 (Dstruct.Nmtree.size tree);
  Alcotest.(check int) "map" 200 (Dstruct.Phashmap.length map);
  Alcotest.(check int) "source account" 750 (Ralloc.load heap accounts);
  Alcotest.(check int) "target account" 250 (Ralloc.load heap (accounts + 8));
  Dstruct.Nmtree.check_invariants tree;
  Alcotest.(check (option string)) "map value" (Some "84")
    (Dstruct.Phashmap.get map "42")

let () =
  Alcotest.run "properties"
    [
      ( "models",
        List.map QCheck_alcotest.to_alcotest
          [ prop_pstack_lifo; prop_nmtree_map; prop_phashmap_map ] );
      ( "durability",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_phashmap_durable;
            prop_nmtree_durable;
            prop_phashmap_deletes_durable;
            prop_pstack_durable;
            prop_txn_durable;
            prop_recovery_audit_clean;
            prop_recovery_idempotent;
          ] );
      ( "sweeps",
        [
          Alcotest.test_case "eviction rate sweep" `Quick
            test_eviction_rate_sweep;
          Alcotest.test_case "cohabiting structures" `Quick
            test_cohabiting_structures;
        ] );
    ]
