(* Flight recorder: the typed view over a one-line Obs.Pring.

   The ring's crash contract (fenced records survive, torn tails are
   detected, seq stays monotonic through the head rebuild) is the
   Pring's and is covered by test_pring.ml.  This suite checks what the
   view adds: an event is durable the moment [record] returns (the view
   owns the fence), under any eviction weather, with its payload decoded
   back into the right fields; a torn slot surfaces through the view's
   [torn_slots] and [tail]; the per-kind lifetime counters survive
   wrap-around; the flag gates every write; and attach refuses a window
   that holds no recorder. *)

let with_ring ?(capacity = 16) f =
  Pmem.set_latency ~flush_ns:0 ~fence_ns:0 ();
  Obs.Flight.set_enabled true;
  let words = Obs.Flight.words_for ~capacity in
  let r = Pmem.create ~size_bytes:(words * 8) () in
  let b = Pmem.window r ~first_word:0 ~words in
  let t = Obs.Flight.format b ~capacity in
  Pmem.flush_all r;
  Pmem.fence r;
  Fun.protect ~finally:(fun () -> Obs.Flight.set_enabled false)
    (fun () -> f r b t)

let reattach b =
  match Obs.Flight.attach b with
  | Some t -> t
  | None -> Alcotest.fail "attach refused a valid ring"

(* ---------------- unit tests ---------------- *)

let test_roundtrip () =
  with_ring (fun r b t ->
      for i = 1 to 5 do
        Obs.Flight.record t ~kind:Obs.Flight.Kind.malloc ~a:i ~b:(i * 10)
          ~c:(i * 100) ()
      done;
      Pmem.crash r;
      let t' = reattach b in
      let evs = Obs.Flight.tail t' in
      Alcotest.(check int) "all five events" 5 (List.length evs);
      List.iteri
        (fun i (e : Obs.Flight.event) ->
          Alcotest.(check int) "seq" (i + 1) e.seq;
          Alcotest.(check int) "a" (i + 1) e.a;
          Alcotest.(check int) "b" ((i + 1) * 10) e.arg_b;
          Alcotest.(check int) "c" ((i + 1) * 100) e.c)
        evs;
      Alcotest.(check int) "cursor rebuilt" 5 (Obs.Flight.total_recorded t');
      Alcotest.(check int) "no torn slots" 0 (Obs.Flight.torn_slots t'))

let test_wrap_keeps_newest () =
  with_ring ~capacity:8 (fun r b t ->
      for i = 1 to 20 do
        Obs.Flight.record t ~kind:Obs.Flight.Kind.free ~a:i ()
      done;
      Pmem.crash r;
      let t' = reattach b in
      let evs = Obs.Flight.tail t' in
      Alcotest.(check int) "ring holds capacity" 8 (List.length evs);
      Alcotest.(check (list int)) "newest eight, oldest first"
        [ 13; 14; 15; 16; 17; 18; 19; 20 ]
        (List.map (fun (e : Obs.Flight.event) -> e.seq) evs);
      Alcotest.(check int) "lifetime kind counter survives wrap" 20
        (Obs.Flight.kind_count t' Obs.Flight.Kind.free))

let test_disabled_records_nothing () =
  with_ring (fun _ _ t ->
      Obs.Flight.set_enabled false;
      Obs.Flight.record t ~kind:Obs.Flight.Kind.malloc ();
      Obs.Flight.set_enabled true;
      Alcotest.(check int) "nothing recorded" 0 (Obs.Flight.total_recorded t))

let test_torn_slot_detected () =
  with_ring (fun r b t ->
      Obs.Flight.record t ~kind:Obs.Flight.Kind.malloc ~a:7 ();
      (* hand-compose a torn entry in the next slot: seq and payload
         written, checksum (the entry's last word) never stored — the
         state a spontaneous eviction can persist mid-[record] *)
      let header_words = 24 and entry_words = 8 in
      let w = header_words + (1 * entry_words) in
      b.Obs.Pring.store w 2;
      b.Obs.Pring.store (w + 1) Obs.Flight.Kind.free;
      b.Obs.Pring.store (w + 2) 99;
      b.Obs.Pring.flush w;
      b.Obs.Pring.fence ();
      Pmem.crash r;
      let t' = reattach b in
      Alcotest.(check int) "torn slot counted" 1 (Obs.Flight.torn_slots t');
      let evs = Obs.Flight.tail t' in
      Alcotest.(check (list int)) "torn entry never misparsed" [ 1 ]
        (List.map (fun (e : Obs.Flight.event) -> e.seq) evs);
      (* the rebuilt cursor must skip past the torn seq so the next record
         overwrites it rather than colliding behind it *)
      Obs.Flight.record t' ~kind:Obs.Flight.Kind.malloc ~a:8 ();
      let evs = Obs.Flight.tail t' in
      Alcotest.(check (list int)) "recording continues over the tear" [ 1; 2 ]
        (List.map (fun (e : Obs.Flight.event) -> e.seq) evs))

let test_attach_rejects_garbage () =
  Pmem.set_latency ~flush_ns:0 ~fence_ns:0 ();
  let words = Obs.Flight.words_for ~capacity:8 in
  let r = Pmem.create ~size_bytes:(words * 8) () in
  let b = Pmem.window r ~first_word:0 ~words in
  Alcotest.(check bool) "zeroed window" true (Obs.Flight.attach b = None);
  Pmem.store r 0 12345;
  Alcotest.(check bool) "bad magic" true (Obs.Flight.attach b = None)

(* ---------------- crash properties ---------------- *)

(* The view owns the fence: an event is readable after a crash, with its
   payload decoded into the right fields, the moment [record] returns,
   whatever the eviction weather — the newest min(n, capacity) of n
   recorded events survive, in order. *)
let prop_fenced_events_survive =
  QCheck2.Test.make ~name:"flight: fenced events survive any crash" ~count:40
    QCheck2.Gen.(
      pair
        (list_size (int_range 1 60)
           (triple (int_range 1 13) (int_bound 10_000) (int_bound 10_000)))
        (float_range 0. 0.5))
    (fun (events, evict_rate) ->
      let capacity = 16 in
      Pmem.set_latency ~flush_ns:0 ~fence_ns:0 ();
      Obs.Flight.set_enabled true;
      Fun.protect ~finally:(fun () -> Obs.Flight.set_enabled false)
        (fun () ->
          let words = Obs.Flight.words_for ~capacity in
          let r = Pmem.create ~size_bytes:(words * 8) () in
          let b = Pmem.window r ~first_word:0 ~words in
          let t = Obs.Flight.format b ~capacity in
          Pmem.flush_all r;
          Pmem.fence r;
          Pmem.set_eviction_rate r evict_rate;
          List.iter
            (fun (kind, a, c) -> Obs.Flight.record t ~kind ~a ~c ())
          events;
          Pmem.crash r;
          match Obs.Flight.attach b with
          | None -> false
          | Some t' ->
            let n = List.length events in
            let expect =
              List.filteri (fun i _ -> i >= n - min n capacity) events
            in
            let got = Obs.Flight.tail t' in
            Obs.Flight.total_recorded t' = n
            && List.length got = List.length expect
            && List.for_all2
                 (fun (kind, a, c) (e : Obs.Flight.event) ->
                   e.kind = kind && e.a = a && e.c = c)
                 expect got))

let () =
  Alcotest.run "flight"
    [
      ( "units",
        [
          Alcotest.test_case "record/crash/attach roundtrip" `Quick
            test_roundtrip;
          Alcotest.test_case "wrap keeps newest, counters survive" `Quick
            test_wrap_keeps_newest;
          Alcotest.test_case "disabled is a no-op" `Quick
            test_disabled_records_nothing;
          Alcotest.test_case "torn slot detected and skipped" `Quick
            test_torn_slot_detected;
          Alcotest.test_case "attach rejects garbage" `Quick
            test_attach_rejects_garbage;
        ] );
      ( "crash properties",
        List.map QCheck_alcotest.to_alcotest [ prop_fenced_events_survive ] );
    ]
