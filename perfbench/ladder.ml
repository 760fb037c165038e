(* The layer ladder: one workload's op stream replayed through each layer's
   public functions in this process, bottom up.

   L0 Pmem     flush and fence on a file-backed region
   L1 Ralloc   malloc/free with the sizes the stream's ops allocate
   L2 dstruct  Nmtree / Phashmap on a bare Ralloc heap
   L3 Store    iset/iget/sset/sget/sdel on a ~concurrent:true store, run the
               way a pkvd worker runs it: EBR pinned, release fences deferred
               and drained once per 32 writes (pkvd's default batch)

   The telemetry switches pkvd turns on are turned on here too; run.py runs
   the ladder a second time under OBS_DISABLED (which makes them no-ops) and
   reports the difference as the telemetry tax. *)

module P = Server.Proto

let now = Obs.now_ns

(* How many steady-mix ops follow the preload in the replayed stream. *)
let mixed_ops = 20_000

let stream_of spec seed =
  let take (s : Gen.stream) n =
    let rec go acc n = if n = 0 then acc else match s () with Some r -> go (r :: acc) (n - 1) | None -> acc in
    List.rev (go [] n)
  in
  match spec.Gen.kind with
  | Gen.Ingest_seq -> Array.of_list (take (Gen.ingest spec seed) max_int)
  | Gen.Read_mostly | Gen.String_churn ->
    Array.of_list
      (take (Gen.preload spec seed) max_int @ take (Gen.mixed spec seed ~phase:1) mixed_ops)

(* The structure a workload leaves idle replays the stream mirrored onto
   its key type, so every row is measured on every workload. *)
let mirror = function
  | P.Set (k, v) -> P.Sset (string_of_int k, string_of_int v)
  | P.Get k -> P.Sget (string_of_int k)
  | P.Del k -> P.Sdel (string_of_int k)
  | P.Sset (k, v) -> P.Set (Hashtbl.hash k, String.length v)
  | P.Sget k -> P.Get (Hashtbl.hash k)
  | P.Sdel k -> P.Del (Hashtbl.hash k)
  | r -> r

(* The mirrored stream, then deletes of up to 2000 of the keys it bound, so
   the delete rows are measured on streams without deletes too. *)
let mirrored ops =
  let m = Array.map mirror ops in
  let seen = Hashtbl.create 4096 and dels = ref [] in
  Array.iter
    (fun r ->
      if Hashtbl.length seen < 2000 then
        match r with
        | P.Set (k, _) when not (Hashtbl.mem seen (Gen.Ikey k)) ->
          Hashtbl.replace seen (Gen.Ikey k) ();
          dels := P.Del k :: !dels
        | P.Sset (k, _) when not (Hashtbl.mem seen (Gen.Skey k)) ->
          Hashtbl.replace seen (Gen.Skey k) ();
          dels := P.Sdel k :: !dels
        | _ -> ())
    m;
  Array.append m (Array.of_list (List.rev !dels))

(* Growable nanosecond sample sets, one per timed call kind. *)
type timer = { mutable xs : int list; mutable n : int; mutable sum : int }

let timer () = { xs = []; n = 0; sum = 0 }

let time tm f =
  let t0 = now () in
  let r = f () in
  let d = now () - t0 in
  tm.xs <- d :: tm.xs;
  tm.n <- tm.n + 1;
  tm.sum <- tm.sum + d;
  r

let q tm p =
  if tm.n = 0 then 0.
  else begin
    let a = Array.of_list tm.xs in
    Array.sort compare a;
    float_of_int a.(max 0 (min (tm.n - 1) (int_of_float (Float.ceil (p *. float_of_int tm.n)) - 1)))
  end

let per a b = float_of_int a /. float_of_int (max 1 b)

(* Remove the three files of the heap at [path], if present. *)
let remove_files path =
  List.iter
    (fun ext ->
      let f = path ^ "." ^ ext in
      if Sys.file_exists f then Sys.remove f)
    [ "desc"; "meta"; "sb" ]

(* L0: one store, one flush and one fence per line, timed separately. *)
let pmem ~dir ~field =
  let path = Filename.concat dir "ladder.pmem" in
  if Sys.file_exists path then Sys.remove path;
  let r, _ = Pmem.open_file ~path ~size_bytes:(1 lsl 22) () in
  let lines = (1 lsl 22) / Pmem.line_bytes and fl = timer () and fe = timer () in
  for i = 0 to 19_999 do
    let off = i mod lines * Pmem.words_per_line in
    Pmem.store r off i;
    time fl (fun () -> Pmem.flush r off);
    time fe (fun () -> Pmem.fence r)
  done;
  Pmem.close_file r;
  Sys.remove path;
  field "pmem.flush_ns" (q fl 0.5);
  field "pmem.fence_ns" (q fe 0.5)

(* The blocks an op allocates, by size: Nmtree inserts a leaf and an
   internal node of 32 B; Phashmap a 48 B node plus key and value copies. *)
let sizes = function
  | P.Set _ -> [ 32; 32 ]
  | P.Sset (k, v) -> [ 48; max 8 (String.length k); max 8 (String.length v) ]
  | _ -> []

(* L1: each write mallocs its blocks and frees the blocks of the binding
   it replaces or deletes; what is left is freed at the end. *)
let ralloc ~field ops =
  let h = Ralloc.create ~size:(64 lsl 20) () in
  let live = Hashtbl.create 65536 and m = timer () and f = timer () in
  let s0 = Ralloc.stats h in
  let release key =
    List.iter (fun b -> time f (fun () -> Ralloc.free h b)) (Option.value (Hashtbl.find_opt live key) ~default:[]);
    Hashtbl.remove live key
  in
  Array.iter
    (fun r ->
      match r with
      | P.Set _ | P.Sset _ ->
        let key = Gen.key_of r in
        release key;
        Hashtbl.replace live key (List.map (fun sz -> time m (fun () -> Ralloc.malloc h sz)) (sizes r))
      | P.Sdel _ | P.Del _ -> release (Gen.key_of r)
      | _ -> ())
    ops;
  List.iter release (Hashtbl.fold (fun k _ acc -> k :: acc) live []);
  let s1 = Pmem.Stats.diff (Ralloc.stats h) s0 in
  field "ralloc.malloc_ns_p50" (q m 0.5);
  field "ralloc.malloc_ns_p99" (q m 0.99);
  field "ralloc.free_ns_p50" (q f 0.5);
  field "ralloc.free_ns_p99" (q f 0.99);
  let calls = m.n + f.n in
  field "l1.ns_per_call" (per (m.sum + f.sum) calls);
  field "l1.fences_per_call" (per s1.fences calls);
  field "l1.flushes_per_call" (per s1.flushes calls)

(* L2: the bare structures, immediate reclamation, one heap.  Returns the
   mean ns per op of the workload's own stream. *)
let dstruct ~field ops =
  let h = Ralloc.create ~size:(64 lsl 20) () in
  let tree = Dstruct.Nmtree.create ~reclaim:true h ~root:0 in
  let map = Dstruct.Phashmap.create ~reclaim:true h ~root:1 ~buckets:1024 in
  let ins = timer () and find = timer () and idel = timer () in
  let set = timer () and get = timer () and del = timer () in
  let replay =
    Array.iter (function
      | P.Set (k, v) ->
        time ins (fun () ->
            if not (Dstruct.Nmtree.insert tree k v) then begin
              ignore (Dstruct.Nmtree.delete tree k);
              ignore (Dstruct.Nmtree.insert tree k v)
            end)
      | P.Get k -> ignore (time find (fun () -> Dstruct.Nmtree.find tree k))
      | P.Del k -> ignore (time idel (fun () -> Dstruct.Nmtree.delete tree k))
      | P.Sset (k, v) -> ignore (time set (fun () -> Dstruct.Phashmap.set map k v))
      | P.Sget k -> ignore (time get (fun () -> Dstruct.Phashmap.get map k))
      | P.Sdel k -> ignore (time del (fun () -> Dstruct.Phashmap.delete map k))
      | _ -> ())
  in
  let total () = ins.sum + find.sum + idel.sum + set.sum + get.sum + del.sum in
  let s0 = Ralloc.stats h in
  replay ops;
  let s1 = Pmem.Stats.diff (Ralloc.stats h) s0 and native = total () in
  replay (mirrored ops);
  let n = Array.length ops in
  field "dstruct.nmtree_insert_ns_p50" (q ins 0.5);
  field "dstruct.nmtree_insert_ns_p99" (q ins 0.99);
  field "dstruct.nmtree_find_ns_p50" (q find 0.5);
  field "dstruct.phashmap_set_ns_p50" (q set 0.5);
  field "dstruct.phashmap_set_ns_p99" (q set 0.99);
  field "dstruct.phashmap_get_ns_p50" (q get 0.5);
  field "dstruct.phashmap_delete_ns_p50" (q del 0.5);
  field "l2.ns_per_op" (per native n);
  field "l2.fences_per_op" (per s1.fences n);
  field "l2.flushes_per_op" (per s1.flushes n);
  per native n

(* L3: the store, driven like one pkvd worker. *)
let store ~dir ~field ops ~dstruct_ns =
  let path = Filename.concat dir "ladder_store" in
  remove_files path;
  let st = Server.Store.open_store ~concurrent:true path in
  let pin () = Option.iter Ebr.pin st.smr and unpin () = Option.iter Ebr.unpin st.smr in
  let iset = timer () and iget = timer () and idel = timer () in
  let sset = timer () and sget = timer () and sdel = timer () in
  Pmem.set_fence_deferral true;
  let batch = ref 0 in
  let replay =
    Array.iter (fun r ->
        (match r with
        | P.Set (k, v) -> time iset (fun () -> Server.Store.iset st k v)
        | P.Get k -> ignore (time iget (fun () -> Server.Store.iget st k))
        | P.Del k -> ignore (time idel (fun () -> Server.Store.idel st k))
        | P.Sset (k, v) -> time sset (fun () -> Server.Store.sset st k v)
        | P.Sget k -> ignore (time sget (fun () -> Server.Store.sget st k))
        | P.Sdel k -> ignore (time sdel (fun () -> Server.Store.sdel st k))
        | _ -> ());
        if P.is_write r then begin
          incr batch;
          if !batch = 32 then begin
            ignore (Pmem.drain_deferred ());
            unpin ();
            pin ();
            batch := 0
          end
        end)
  in
  let s0 = Ralloc.stats st.heap and t0 = now () in
  pin ();
  replay ops;
  ignore (Pmem.drain_deferred ());
  unpin ();
  let wall = now () - t0 in
  let s1 = Pmem.Stats.diff (Ralloc.stats st.heap) s0 in
  let timed = iset.sum + iget.sum + idel.sum + sset.sum + sget.sum + sdel.sum in
  pin ();
  replay (mirrored ops);
  ignore (Pmem.drain_deferred ());
  unpin ();
  Pmem.set_fence_deferral false;
  remove_files path;
  let n = Array.length ops in
  field "store.iset_ns_p50" (q iset 0.5);
  field "store.iset_ns_p99" (q iset 0.99);
  field "store.iget_ns_p50" (q iget 0.5);
  field "store.sset_ns_p50" (q sset 0.5);
  field "store.sset_ns_p99" (q sset 0.99);
  field "store.sget_ns_p50" (q sget 0.5);
  field "store.sdel_ns_p50" (q sdel 0.5);
  field "store.self_ns_per_op" (per timed n -. dstruct_ns);
  field "store.fences_per_op" (per s1.fences n);
  field "store.flushes_per_op" (per s1.flushes n);
  field "l3.ns_per_op" (per wall n)

let run ~workload ~seed ~dir ~field =
  let spec =
    match Gen.find workload with Some s -> s | None -> failwith ("pb: unknown workload " ^ workload)
  in
  (* the switches Core.start turns on; no-ops under OBS_DISABLED *)
  Obs.set_enabled true;
  Obs.Span.set_enabled true;
  Obs.Flight.set_enabled true;
  Obs.Tsdb.set_enabled true;
  let ops = stream_of spec seed in
  field "ops" (float_of_int (Array.length ops));
  pmem ~dir ~field;
  ralloc ~field ops;
  let dstruct_ns = dstruct ~field ops in
  store ~dir ~field ops ~dstruct_ns
