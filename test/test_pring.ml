(* Persistent ring (Obs.Pring): the crash contract every black box
   inherits — the flight recorder and provenance ring (1-line records),
   the metrics rings (4-line records) and the name tables.

   The properties run in both pmem modes with random spontaneous
   eviction, the ring ones over 1-line and 4-line records:
   - a record whose append was followed by a fence survives any crash
     with its exact payload;
   - a torn record is detected by its checksum and never misparsed, and
     the head rebuilt at attach skips past it;
   - sequence numbers stay monotonic across crash cycles;
   - a torn name record reads as empty;
   - a crash sweep under the persistency checker finds zero violations. *)

module P = Obs.Pring

let capacity = 16

let gen_setup =
  QCheck2.Gen.(
    triple (oneofl [ 1; 4 ])
      (oneofl [ Pmem.Pipelined; Pmem.Synchronous ])
      (float_range 0. 0.5))

(* A fresh window holding one ring at base 0, formatted and durable.
   The region has one spare line past the window for [burn]. *)
let with_ring ~lines ~mode f =
  Pmem.set_latency ~flush_ns:0 ~fence_ns:0 ();
  Pmem.set_mode mode;
  Fun.protect
    ~finally:(fun () -> Pmem.set_mode Pmem.Pipelined)
    (fun () ->
      let words = P.words_for ~lines ~capacity in
      let r = Pmem.create ~size_bytes:((words + 8) * 8) () in
      let b = Pmem.window r ~first_word:0 ~words in
      let t = P.format b ~base:0 ~lines ~capacity in
      Pmem.flush_all r;
      Pmem.fence r;
      f r b t)

let reattach b ~lines = P.attach b ~base:0 ~lines ~capacity

(* Every region starts from the same eviction RNG state; [n] stores to
   the spare line move it on, so a property sees varied eviction
   patterns rather than one. *)
let burn r ~lines n =
  for i = 1 to n do
    Pmem.store r (P.words_for ~lines ~capacity) i
  done

(* Deterministic payloads so a property can recompute what record [k]
   must hold. *)
let payload t ~seed k =
  Array.init (P.payload_words t) (fun i -> (seed * 7919) + (k * 31) + i)

let append_fenced t b p =
  let s = P.scratch () in
  Array.blit p 0 s 0 (Array.length p);
  P.append t s;
  b.P.fence ()

let records t = List.rev (P.fold t (fun acc ~seq p -> (seq, p) :: acc) [])

(* Fenced records are always readable after a crash, with exact
   payloads, whatever the eviction weather: the newest min(n, capacity)
   of n survive, in order, and the head resumes after the newest. *)
let prop_fenced_records_survive =
  QCheck2.Test.make ~name:"pring: fenced records survive any crash" ~count:60
    QCheck2.Gen.(triple gen_setup (int_range 1 50) (int_bound 1_000))
    (fun ((lines, mode, evict), n, seed) ->
      with_ring ~lines ~mode (fun r b t ->
          Pmem.set_eviction_rate r evict;
          for k = 1 to n do
            append_fenced t b (payload t ~seed k)
          done;
          Pmem.crash r;
          let t' = reattach b ~lines in
          let got = records t' in
          let first = max 1 (n - capacity + 1) in
          P.total t' = n
          && List.map fst got = List.init (n - first + 1) (fun i -> first + i)
          && List.for_all (fun (seq, p) -> p = payload t' ~seed seq) got))

(* A torn tail — the seq and any subset of payload words durable, the
   checksum not — is counted, skipped, never misparsed, never hides the
   records before it, and the next append overwrites it. *)
let prop_torn_tail_detected =
  QCheck2.Test.make ~name:"pring: torn tail detected, never misparsed"
    ~count:60
    QCheck2.Gen.(
      triple gen_setup (int_range 1 (capacity - 1))
        (list_size (int_range 1 8) (pair (int_bound 30) (int_bound 1_000_000))))
    (fun ((lines, mode, _), n_good, torn_words) ->
      with_ring ~lines ~mode (fun r b t ->
          for k = 1 to n_good do
            append_fenced t b (payload t ~seed:1 k)
          done;
          (* hand-compose record n_good+1 as an eviction could leave it:
             seq plus some payload words, checksum word (last) still 0 *)
          let rw = lines * 8 in
          let w0 = n_good * rw in
          b.P.store w0 (n_good + 1);
          List.iter
            (fun (i, v) -> if i < rw - 2 then b.P.store (w0 + 1 + i) v)
            torn_words;
          for l = 0 to lines - 1 do
            b.P.flush (w0 + (l * 8))
          done;
          b.P.fence ();
          Pmem.crash r;
          let t' = reattach b ~lines in
          let seqs = List.map fst (records t') in
          let before =
            seqs = List.init n_good (fun i -> i + 1)
            && P.torn_slots t' = 1
            && P.total t' = n_good
          in
          append_fenced t' b (payload t' ~seed:2 (n_good + 1));
          let after = records t' in
          before
          && P.torn_slots t' = 0
          && List.map fst after = List.init (n_good + 1) (fun i -> i + 1)
          && List.assoc (n_good + 1) after = payload t' ~seed:2 (n_good + 1)))

(* The same contract with the tear made by the simulator itself: the last
   append is never fenced, so eviction may persist any subset of its
   lines in any state of composition.  Whatever survives is either a
   fenced record or the whole unfenced one — never a mix.  Moderate
   eviction rates tear multi-line records most often. *)
let prop_unfenced_tail_never_misparsed =
  QCheck2.Test.make ~name:"pring: unfenced tail whole or absent" ~count:100
    QCheck2.Gen.(
      quad gen_setup (int_range 0 (capacity - 1)) (float_range 0.1 0.6)
        (int_bound 1_000))
    (fun ((lines, mode, _), n_good, evict, n_burn) ->
      with_ring ~lines ~mode (fun r b t ->
          for k = 1 to n_good do
            append_fenced t b (payload t ~seed:3 k)
          done;
          Pmem.set_eviction_rate r evict;
          burn r ~lines n_burn;
          let s = P.scratch () in
          Array.blit (payload t ~seed:3 (n_good + 1)) 0 s 0
            (P.payload_words t);
          P.append t s;
          Pmem.crash r;
          let got = records (reattach b ~lines) in
          let seqs = List.map fst got in
          (seqs = List.init n_good (fun i -> i + 1)
          || seqs = List.init (n_good + 1) (fun i -> i + 1))
          && List.for_all (fun (seq, p) -> p = payload t ~seed:3 seq) got))

(* Sequence numbers stay monotonic across crash/attach cycles: each
   cycle's records continue where the durable ones left off. *)
let prop_seq_monotonic =
  QCheck2.Test.make ~name:"pring: seq monotonic across crash cycles" ~count:40
    QCheck2.Gen.(pair gen_setup (list_size (int_range 1 5) (int_range 1 10)))
    (fun ((lines, mode, evict), batches) ->
      with_ring ~lines ~mode (fun r b t ->
          Pmem.set_eviction_rate r evict;
          let total = ref 0 in
          let t = ref t in
          List.for_all
            (fun batch ->
              for _ = 1 to batch do
                incr total;
                append_fenced !t b (payload !t ~seed:4 !total)
              done;
              Pmem.crash r;
              t := reattach b ~lines;
              let seqs = List.map fst (records !t) in
              P.total !t = !total
              && List.nth seqs (List.length seqs - 1) = !total
              && List.sort_uniq compare seqs = seqs)
            batches))

(* A name record is one line with its length word stored last: a tear
   that persisted payload words but not the length reads as empty, every
   name persisted before the crash reads back exactly, and the checker
   sees no durability violation. *)
let prop_torn_name_reads_empty =
  QCheck2.Test.make ~name:"pring: torn name record reads empty" ~count:60
    QCheck2.Gen.(
      quad
        (oneofl [ Pmem.Pipelined; Pmem.Synchronous ])
        (float_range 0. 0.5)
        (list_size (int_range 1 6)
           (string_size ~gen:printable (int_range 1 60)))
        (list_size (int_range 1 7) (int_bound max_int)))
    (fun (mode, evict, names, torn_words) ->
      Pmem.set_latency ~flush_ns:0 ~fence_ns:0 ();
      Pmem.set_mode mode;
      Pmem.Check.set_enabled true;
      let ck0 = Pmem.Check.totals () in
      Fun.protect
        ~finally:(fun () ->
          Pmem.Check.set_enabled false;
          Pmem.set_mode Pmem.Pipelined)
        (fun () ->
          let cap = 8 in
          let words = P.Names.words_for ~capacity:cap in
          let r = Pmem.create ~size_bytes:(words * 8) () in
          let b = Pmem.window r ~first_word:0 ~words in
          let tab = P.Names.format b ~base:0 ~capacity:cap in
          Pmem.flush_all r;
          Pmem.fence r;
          Pmem.set_eviction_rate r evict;
          List.iteri (fun id n -> P.Names.persist tab id n) names;
          (* the last record: payload words durable, length never stored *)
          let w0 = (cap - 1) * 8 in
          List.iteri (fun i v -> b.P.store (w0 + 1 + i) v) torn_words;
          b.P.flush w0;
          b.P.fence ();
          Pmem.crash r;
          let tab' = P.Names.attach b ~base:0 ~capacity:cap in
          let trunc n =
            String.sub n 0 (min (String.length n) P.Names.max_name)
          in
          let ckd = Pmem.Check.diff (Pmem.Check.totals ()) ck0 in
          P.Names.name tab' (cap - 1) = None
          && ckd.Pmem.Check.t_violations = 0
          && P.Names.count tab' = List.length names
          && List.for_all Fun.id
               (List.mapi
                  (fun id n -> P.Names.name tab' id = Some (trunc n))
                  names)))

(* Crash sweep under the persistency checker: wherever the crash lands
   and whatever the eviction weather, attach and fold read only
   checksummed records, every fenced record survives exactly, and the
   checker sees zero (non-allowlisted) durability violations. *)
let prop_crash_sweep_checked =
  QCheck2.Test.make ~name:"pring: crash sweep under pcheck, zero violations"
    ~count:40
    QCheck2.Gen.(
      quad gen_setup (int_range 1 40) (int_range 0 3) (int_bound 1_000))
    (fun ((lines, mode, evict), n, unfenced, n_burn) ->
      Pmem.Check.set_enabled true;
      let ck0 = Pmem.Check.totals () in
      Fun.protect
        ~finally:(fun () -> Pmem.Check.set_enabled false)
        (fun () ->
          with_ring ~lines ~mode (fun r b t ->
              Pmem.set_eviction_rate r evict;
              burn r ~lines n_burn;
              for k = 1 to n do
                append_fenced t b (payload t ~seed:5 k)
              done;
              (* and a few appends whose fence never comes *)
              for k = n + 1 to n + unfenced do
                let s = P.scratch () in
                Array.blit (payload t ~seed:5 k) 0 s 0 (P.payload_words t);
                P.append t s
              done;
              Pmem.crash r;
              let got = records (reattach b ~lines) in
              let ckd = Pmem.Check.diff (Pmem.Check.totals ()) ck0 in
              (* a fenced record survives unless a later append reused
                 its slot *)
              let last = n + unfenced in
              let kept = List.init n (fun i -> i + 1)
                         |> List.filter (fun k -> k > last - capacity) in
              List.for_all (fun k -> List.mem_assoc k got) kept
              && List.for_all
                   (fun (seq, p) -> seq <= last && p = payload t ~seed:5 seq)
                   got
              && ckd.Pmem.Check.t_violations = 0)))

let () =
  Alcotest.run "pring"
    [
      ( "crash properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_fenced_records_survive;
            prop_torn_tail_detected;
            prop_unfenced_tail_never_misparsed;
            prop_seq_monotonic;
            prop_torn_name_reads_empty;
            prop_crash_sweep_checked;
          ] );
    ]
