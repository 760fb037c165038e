(* pb: the pkvd benchmark's compiled half.

   pb drive   one benchmark run against a real pkvd process: set-up, the
              measured phases, kill -9, restarts and read-back; prints one
              JSON object of raw results.
   pb ladder  the layer-ladder replay of the same op stream through Pmem,
              Ralloc, Nmtree/Phashmap and Store, in this process.

   run.py builds this and pkvd, calls both and prints the benchmark result. *)

module P = Server.Proto
module C = Client

let now = Obs.now_ns

(* ------------------------------ arguments ------------------------------ *)

let args = Hashtbl.create 16

let parse_args argv =
  let rec go = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      Hashtbl.replace args (String.sub k 2 (String.length k - 2)) v;
      go rest
    | [] -> ()
    | x :: _ -> failwith ("pb: unexpected argument " ^ x)
  in
  go argv

let arg k = match Hashtbl.find_opt args k with Some v -> v | None -> failwith ("pb: missing --" ^ k)
let arg_or k d = Option.value (Hashtbl.find_opt args k) ~default:d

(* ------------------------------ JSON out ------------------------------- *)

let out = Buffer.create 4096

let field k v = Printf.bprintf out "%s%S: %s" (if Buffer.length out > 1 then ", " else "") k v
let num k v = field k (if Float.is_finite v then Printf.sprintf "%.17g" v else "null")
let int k v = field k (string_of_int v)

let emit () =
  print_string (Buffer.contents out);
  print_endline "}"

let () = Buffer.add_char out '{'

(* -------------------------------- pkvd --------------------------------- *)

type server = { pid : int; sock : string }

let ping sock =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) (fun () ->
      Unix.connect fd (Unix.ADDR_UNIX sock);
      P.write_frame fd (P.encode_request P.Ping);
      match P.read_frame fd with
      | Some r -> P.decode_response r = Ok P.Ok
      | None -> false)

(* Start pkvd on [dir]/heap in its shipped default configuration and wait
   for its first PING reply; returns the server and the seconds that took
   (which include recovering a dirty image). *)
let start ~pkvd ~dir =
  let sock = Filename.concat dir "pkvd.sock" in
  if Sys.file_exists sock then Sys.remove sock;
  let log =
    Unix.openfile (Filename.concat dir "pkvd.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  let t0 = now () in
  let pid =
    Unix.create_process pkvd
      [| pkvd; "--heap"; Filename.concat dir "heap"; "--socket"; sock |]
      Unix.stdin log log
  in
  Unix.close log;
  let rec wait () =
    if now () - t0 > 60_000_000_000 then failwith "pb: pkvd did not answer PING";
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | p, _ when p = pid -> failwith "pb: pkvd exited during start (see pkvd.log)"
    | _ ->
      if (try ping sock with Unix.Unix_error _ -> false) then ()
      else begin
        Unix.sleepf 0.001;
        wait ()
      end
  in
  wait ();
  ({ pid; sock }, float_of_int (now () - t0) /. 1e9)

let kill9 s =
  (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] s.pid)

let terminate s =
  (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let t0 = now () in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] s.pid with
    | p, _ when p = s.pid -> ()
    | _ when now () - t0 > 10_000_000_000 -> kill9 s
    | _ ->
      Unix.sleepf 0.01;
      wait ()
  in
  wait ()

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* ------------------------------- drive --------------------------------- *)

(* Counts over every checked request of the run: set-up, phases, read-back. *)
let all = C.tally ()

let absorb (t : C.tally) =
  all.attempted <- all.attempted + t.attempted;
  all.failed <- all.failed + t.failed

let far () = now () + 3_600_000_000_000

(* Heap bytes held by live allocations, from Ralloc's per-class malloc and
   free counters in STATS (lifetime of this pkvd process). *)
let allocated_bytes st =
  let b = ref 0. in
  for c = 1 to Ralloc.Size_class.count do
    let k s = Printf.sprintf "ralloc_%s_class_%02d" s c in
    b := !b +. ((C.stat st (k "alloc") -. C.stat st (k "free"))
               *. float_of_int (Ralloc.Size_class.block_size c))
  done;
  !b

let quant (s : C.Samples.t) q = float_of_int (C.Samples.windowed s q)

(* Per-layer numbers from a STATS diff around one phase of [acked] ops. *)
let layer_stats a b (t : C.tally) =
  let ops = float_of_int (max 1 t.acked) in
  let d = C.delta a b in
  let per_op k = d k /. ops in
  let ratio n dd = if dd = 0. then 0. else n /. dd in
  let rt_ops = d "server_span_read_ops" +. d "server_span_write_ops" in
  let stage s = ratio (d ("server_span_read_sum_" ^ s ^ "_ns") +. d ("server_span_write_sum_" ^ s ^ "_ns")) rt_ops in
  let mallocs = ref 0. in
  for c = 0 to Ralloc.Size_class.count do
    mallocs := !mallocs +. d (if c = 0 then "ralloc_alloc_large" else Printf.sprintf "ralloc_alloc_class_%02d" c)
  done;
  num "pmem.flushes_per_op" (per_op "pmem_flushes");
  num "pmem.bytes_per_op" (per_op "pmem_physical_bytes");
  num "pmem.write_amp" (ratio (d "pmem_physical_bytes") (d "pmem_logical_bytes"));
  num "pmem.drain_ns_per_op" (per_op "pmem_drain_ns_sum");
  num "ralloc.tcache_hit_rate"
    (ratio (d "ralloc_tcache_hit") (d "ralloc_tcache_hit" +. d "ralloc_tcache_miss"));
  num "ralloc.slow_path_per_kop" (1000. *. per_op "ralloc_slow_path");
  num "ralloc.mallocs_per_op" (!mallocs /. ops);
  num "ebr.retired_per_op" (per_op "ebr_retired");
  num "ebr.reclaimed_per_op" (per_op "ebr_reclaimed");
  num "core.batch_size_mean" (ratio (d "server_batch_size_sum") (d "server_batch_size_count"));
  num "core.commits_per_kop" (1000. *. per_op "server_commits");
  num "core.queue_ns_per_op" (stage "queue");
  num "core.service_ns_per_op" (stage "service" +. stage "alloc" +. stage "flush");
  num "core.fence_ns_per_op" (stage "fence");
  num "core.park_ns_per_op" (stage "park");
  num "squeue.busy_per_kop" (1000. *. per_op "server_busy");
  num "evloop.ready_batch_mean" (ratio (d "server_ready_batch_sum") (d "server_ready_batch_count"));
  num "evloop.wake_ns_mean" (ratio (d "server_loop_wake_ns_sum") (d "server_loop_wake_ns_count"));
  num "conn.accept_ns_per_op" (stage "accept");
  num "conn.decode_ns_per_op" (stage "decode");
  num "conn.ack_ns_per_op" (stage "ack")

(* Overwrite one binding in the model with a value pkvd was never sent:
   the self-test's injected fault, which the read-back must catch. *)
let inject_fault (m : Gen.model) =
  match Hashtbl.fold (fun k v _ -> Some (k, v)) m.ints None with
  | Some (k, v) -> Hashtbl.replace m.ints k (v + 1)
  | None -> (
    match Hashtbl.fold (fun k v _ -> Some (k, v)) m.strs None with
    | Some (k, v) -> Hashtbl.replace m.strs k (v ^ "!")
    | None -> ())

let drive () =
  let spec =
    match Gen.find (arg "workload") with
    | Some s -> s
    | None -> failwith ("pb: unknown workload " ^ arg "workload")
  in
  let seed = int_of_string (arg "seed") in
  let seconds = float_of_string (arg "seconds") in
  let traced = arg_or "trace" "0" = "1" in
  let fault = arg_or "inject-fault" "0" = "1" in
  let pkvd = arg "pkvd" and dir = arg "dir" in
  let addr_of s = Unix.ADDR_UNIX s.sock in
  let budget_ns = int_of_float (seconds *. 1e9) in
  let setups = ref [] in
  let model = ref (Gen.model ()) in
  (* Fresh heap, pkvd start, preload: the benchmark's set-up. *)
  let setup ?trace () =
    Ladder.remove_files (Filename.concat dir "heap");
    let t0 = now () in
    let s, _ = start ~pkvd ~dir in
    model := Gen.model ();
    let cl = C.create ?trace (addr_of s) !model in
    let tl = C.tally () in
    C.run cl tl (Gen.preload spec seed) ~mode:(C.Closed_loop 64) ~until_ns:(far ()) ();
    absorb tl;
    setups := (float_of_int (now () - t0) /. 1e9) :: !setups;
    (s, cl)
  in
  let srv, cl =
    match spec.kind with
    | Gen.Ingest_seq -> setup ()
    | Gen.Read_mostly | Gen.String_churn ->
      (* three set-ups, the last one kept: set-up time is a median *)
      for _ = 1 to 2 do
        let s, cl = setup () in
        C.close cl;
        kill9 s
      done;
      setup ()
  in
  let srv = ref srv and cl = ref cl in
  let lat = C.tally () and thr = C.tally () in
  let fences = ref 0. in
  let phase ?cap tl stream mode until_ns =
    let a = C.stats !cl in
    C.run !cl tl stream ~mode ?cap ~until_ns ();
    let b = C.stats !cl in
    (a, b)
  in
  let outside = ref nan and overhead = ref nan in
  let round_kops = ref [] in
  let late = if spec.kind = Gen.Ingest_seq then C.tally () else lat in
  (* the tracing cost: a traced closed loop against the untraced one, and
     the client's round trip outside pkvd's own request total *)
  let trace_cost (tl : C.tally) a b =
    overhead := C.rate tl /. C.rate thr;
    let d = C.delta a b in
    let srv_ns =
      (d "server_span_read_sum_total_ns" +. d "server_span_write_sum_total_ns")
      /. Float.max 1. (d "server_span_read_ops" +. d "server_span_write_ops")
    in
    outside := (float_of_int tl.rtt_sum /. float_of_int (max 1 tl.acked)) -. srv_ns;
    absorb tl
  in
  (match spec.kind with
  | Gen.Ingest_seq ->
    (* rounds of a fixed key count, each on a fresh heap, until the time
       budget is spent: one closed loop gives latency and throughput *)
    let round = ref 0 in
    let ingest_round ?trace ?(mode = C.Closed_loop spec.window) tl =
      if !round > 0 then begin
        C.close !cl;
        kill9 !srv;
        let s, c = setup ?trace () in
        srv := s;
        cl := c
      end;
      let a, b =
        phase tl (Gen.ingest spec (seed + !round)) mode (far ())
      in
      incr round;
      (a, b)
    in
    if traced then begin
      let a, b = ingest_round lat in
      fences := C.delta a b "pmem_fences";
      layer_stats a b lat;
      (* the generator's lateness, from one open-loop round at about a
         third of the closed-loop rate *)
      ignore (ingest_round ~mode:(C.Open_loop 3000.) late);
      absorb late;
      ignore (ingest_round thr);
      absorb thr;
      let tl = C.tally () in
      let a, b = ingest_round ~trace:true tl in
      trace_cost tl a b
    end
    else begin
      (* the budget covers each round's set-up too, so a run's length does
         not grow with the number of rounds *)
      let acked = ref 0 and t0 = now () in
      while now () - t0 < budget_ns || !round = 0 do
        let a, b = ingest_round lat in
        fences := !fences +. C.delta a b "pmem_fences";
        round_kops := (float_of_int (lat.acked - !acked) /. C.elapsed_s lat /. 1000.) :: !round_kops;
        acked := lat.acked
      done
    end
  | Gen.Read_mostly | Gen.String_churn ->
    let t_open = if traced then 0.5 *. seconds else 0.65 *. seconds in
    let a, b =
      phase lat (Gen.mixed spec seed ~phase:1) (C.Open_loop spec.rate)
        (now () + int_of_float (t_open *. 1e9))
    in
    fences := C.delta a b "pmem_fences";
    if traced then layer_stats a b lat;
    let t_closed = if traced then 0.25 *. seconds else 0.35 *. seconds in
    (* the traced run has two closed-loop phases; they share the cap *)
    let cap =
      if spec.closed_cap = 0 then max_int
      else if traced then spec.closed_cap / 2
      else spec.closed_cap
    in
    let closed tl ph =
      phase ~cap tl (Gen.mixed spec seed ~phase:ph) (C.Closed_loop spec.window)
        (now () + int_of_float (t_closed *. 1e9))
    in
    ignore (closed thr 2);
    absorb thr;
    if traced then begin
      C.close !cl;
      cl := C.create ~trace:true (addr_of !srv) !model;
      let tl = C.tally () in
      let a, b = closed tl 3 in
      trace_cost tl a b
    end);
  absorb lat;
  let st_end = C.stats !cl in
  let live = Gen.live_bytes !model in
  if traced then C.write_trace !cl (Filename.concat dir "client_trace.json");
  C.close !cl;
  (* kill -9, then 31 restarts on the killed image, each recovering a dirty
     image.  Every restart does the same CPU-bound work, which other tenants
     of the host can only slow down (back-to-back restarts range from 0.13 to
     0.25 s, in episodes of seconds to minutes), so restart time is the
     fastest restart: the median swung with the share of slowed restarts *)
  kill9 !srv;
  if traced then begin
    List.iter
      (fun ext ->
        let src = Filename.concat dir ("heap." ^ ext)
        and dst = Filename.concat dir ("copy." ^ ext) in
        let ic = open_in_bin src and oc = open_out_bin dst in
        let buf = Bytes.create 1048576 in
        let rec cp () =
          let n = input ic buf 0 (Bytes.length buf) in
          if n > 0 then (output oc buf 0 n; cp ())
        in
        cp ();
        close_in ic;
        close_out oc)
      [ "desc"; "meta"; "sb" ]
  end;
  let restarts = ref [] in
  for i = 1 to 31 do
    let s, dt = start ~pkvd ~dir in
    restarts := dt :: !restarts;
    if i < 31 then kill9 s else srv := s
  done;
  if fault then inject_fault !model;
  let vc = C.create (addr_of !srv) !model in
  let vt = C.tally () in
  C.run vc vt (Gen.of_array (Gen.readback spec !model)) ~mode:(C.Closed_loop 32)
    ~until_ns:(far ()) ();
  absorb vt;
  C.close vc;
  terminate !srv;
  (* results *)
  int "attempted" all.attempted;
  int "failed" all.failed;
  int "readback" vt.attempted;
  int "readback_failed" vt.failed;
  (* ingest_seq: the median round; others: the median 1 s window *)
  (match !round_kops with
  | [] ->
    num "throughput_kops" (C.rate thr /. 1000.);
    int "throughput_samples" thr.acked
  | l ->
    num "throughput_kops" (median l);
    int "throughput_samples" lat.acked);
  num "read_p50_us" (quant lat.reads 0.50 /. 1e3);
  num "read_p99_us" (quant lat.reads 0.99 /. 1e3);
  int "read_samples" (C.Samples.count lat.reads);
  num "write_p50_us" (quant lat.writes 0.50 /. 1e3);
  num "write_p99_us" (quant lat.writes 0.99 /. 1e3);
  int "write_samples" (C.Samples.count lat.writes);
  num "fences_per_op" (!fences /. float_of_int (max 1 lat.acked));
  int "fences_samples" lat.acked;
  num "space_amp" (allocated_bytes st_end /. float_of_int (max 1 live));
  int "live_bytes" live;
  num "restart_s" (List.fold_left min infinity !restarts);
  int "restart_samples" (List.length !restarts);
  num "setup_s" (median !setups);
  int "setup_samples" (List.length !setups);
  if traced then begin
    num "client.outside_ns_per_op" !outside;
    num "client.late_us_p99"
      (float_of_int (C.Samples.quantile late.late 0.99) /. 1e3);
    num "client.trace_overhead" !overhead;
    (* recovery alone, in-process, on a copy of the killed image, under the
       telemetry switches pkvd turns on *)
    Obs.set_enabled true;
    Obs.Span.set_enabled true;
    Obs.Flight.set_enabled true;
    Obs.Tsdb.set_enabled true;
    let t0 = now () in
    let st = Server.Store.open_store ~concurrent:true (Filename.concat dir "copy") in
    num "ralloc.recover_s" (float_of_int (now () - t0) /. 1e9);
    ignore st
  end;
  emit ()

let () =
  match Array.to_list Sys.argv with
  | _ :: "drive" :: rest ->
    (* a large minor heap keeps the client's own GC pauses out of the
       latencies it times *)
    Gc.set { (Gc.get ()) with minor_heap_size = 8 lsl 20; space_overhead = 1000 };
    parse_args rest;
    drive ()
  | _ :: "ladder" :: rest ->
    parse_args rest;
    Ladder.run ~workload:(arg "workload") ~seed:(int_of_string (arg "seed"))
      ~dir:(arg "dir") ~field:num;
    emit ()
  | _ ->
    prerr_endline "usage: pb (drive|ladder) --workload W --seed N --dir D ...";
    exit 2
