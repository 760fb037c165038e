(* The benchmark client: one thread, a few non-blocking connections to pkvd,
   an open-loop (fixed rate) and a closed-loop (fixed window) load loop, and
   reply checking against the Gen model.

   Latency is timed from each request's due time: its slot in the fixed-rate
   schedule (open loop) or the moment the window let it go (closed loop).  A
   request that fails or gets no reply before the deadline is recorded as
   slower than any limit.  Replies on one connection come back in request
   order, so they are matched by position. *)

module P = Server.Proto

let now = Obs.now_ns

(* ------------------------------ samples -------------------------------- *)

module Samples = struct
  type t = { mutable lat : int array; mutable at : int array; mutable n : int }

  let create () = { lat = Array.make 65536 0; at = Array.make 65536 0; n = 0 }

  let add t ~at v =
    if t.n = Array.length t.lat then begin
      let grow a = Array.append a (Array.make (Array.length a) 0) in
      t.lat <- grow t.lat;
      t.at <- grow t.at
    end;
    t.lat.(t.n) <- v;
    t.at.(t.n) <- at;
    t.n <- t.n + 1

  let count t = t.n

  let quantile_sorted a q =
    let n = Array.length a in
    if n = 0 then 0
    else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

  let quantile t q =
    let a = Array.sub t.lat 0 t.n in
    Array.sort compare a;
    quantile_sorted a q

  (* The median over 100 ms windows (by due time) of each window's
     quantile; windows with fewer than 10 samples are skipped.  A stall of
     a shared machine moves the windows it overlaps, not the result; a
     stall that covers most windows moves it fully.  In a window of fewer
     than 100 samples the p99 is the window's slowest request. *)
  let windowed t q =
    let width = 100_000_000 in
    let t0 = ref max_int in
    for i = 0 to t.n - 1 do
      t0 := min !t0 t.at.(i)
    done;
    let groups = Hashtbl.create 256 in
    for i = 0 to t.n - 1 do
      let w = (t.at.(i) - !t0) / width in
      Hashtbl.replace groups w (t.lat.(i) :: Option.value (Hashtbl.find_opt groups w) ~default:[])
    done;
    let per =
      Hashtbl.fold
        (fun _ l acc ->
          if List.length l < 10 then acc
          else begin
            let a = Array.of_list l in
            Array.sort compare a;
            quantile_sorted a q :: acc
          end)
        groups []
      |> Array.of_list
    in
    let m = Array.length per in
    if m = 0 then quantile t q
    else begin
      Array.sort compare per;
      if m mod 2 = 1 then per.(m / 2) else (per.((m / 2) - 1) + per.(m / 2)) / 2
    end
end

(* ------------------------------- tally --------------------------------- *)

type tally = {
  mutable attempted : int;
  mutable acked : int;
  mutable failed : int;
  reads : Samples.t;
  writes : Samples.t;
  late : Samples.t;  (** how late each request left, open loop only *)
  mutable rtt_sum : int;  (** sum of send-to-reply times, acked requests *)
  mutable t_begin : int;
  mutable t_end : int;
}

let tally () =
  { attempted = 0; acked = 0; failed = 0; reads = Samples.create ();
    writes = Samples.create (); late = Samples.create (); rtt_sum = 0;
    t_begin = 0; t_end = 0 }

let elapsed_s t = float_of_int (t.t_end - t.t_begin) /. 1e9

(* Acked ops per second: the median over the phase's whole 1 s windows
   (by send time), or the phase mean when it is shorter than two windows. *)
let rate t =
  let window = 1_000_000_000 in
  let whole = (t.t_end - t.t_begin) / window in
  if whole < 2 then float_of_int t.acked /. elapsed_s t
  else begin
    let counts = Array.make whole 0 in
    List.iter
      (fun (s : Samples.t) ->
        for i = 0 to s.n - 1 do
          let w = (s.at.(i) - t.t_begin) / window in
          if s.lat.(i) <> max_int && w >= 0 && w < whole then counts.(w) <- counts.(w) + 1
        done)
      [ t.reads; t.writes ];
    Array.sort compare counts;
    float_of_int (counts.((whole - 1) / 2) + counts.(whole / 2)) /. 2.
  end

(* ----------------------------- connections ----------------------------- *)

type req = {
  id : int;
  r : P.request;
  expect : P.response option;
  due : int;
  lane : int;
  tl : tally;
  mutable t_sent : int;
}

type conn = {
  mutable fd : Unix.file_descr;
  out : Buffer.t;
  mutable out_off : int;
  unsent : (int * req) Queue.t;  (** frame end offset in [out], request *)
  inb : Buffer.t;
  mutable in_off : int;
  pending : req Queue.t;
}

type t = {
  addr : Unix.sockaddr;
  conns : conn array;
  model : Gen.model;
  scratch : Bytes.t;
  mutable next_id : int;
  mutable free_lanes : int list;
  mutable lanes : int;
  trace : Buffer.t option;  (** Chrome trace events, when tracing *)
}

let connect addr =
  let fd = Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
  (try Unix.connect fd addr
   with e ->
     Unix.close fd;
     raise e);
  Unix.set_nonblock fd;
  fd

(* Two connections (the host has two cores), and a 2 s reply deadline. *)
let nconns = 2
let deadline_ns = 2_000_000_000

let create ?(trace = false) addr model =
  let conns =
    Array.init nconns (fun _ ->
        { fd = connect addr; out = Buffer.create 65536; out_off = 0;
          unsent = Queue.create (); inb = Buffer.create 65536; in_off = 0;
          pending = Queue.create () })
  in
  { addr; conns; model; scratch = Bytes.create 65536; next_id = 0;
    free_lanes = []; lanes = 0;
    trace = (if trace then Some (Buffer.create (1 lsl 20)) else None) }

let close t =
  Array.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) t.conns

let inflight t = Array.fold_left (fun a c -> a + Queue.length c.pending) 0 t.conns

(* ------------------------------- spans --------------------------------- *)

(* Each request becomes a "client.req" span with three children on the lane
   it held; args carry the request id, the span id and the parent span id.
   Lanes are reused only after their request completed, so spans on one
   lane never overlap. *)
let emit_spans t q ~t_recv ~t_done =
  match t.trace with
  | None -> ()
  | Some b ->
    let span name sid parent t0 t1 =
      Printf.bprintf b
        "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\
         \"dur\":%.3f,\"args\":{\"req\":%d,\"span\":%d,\"parent\":%d}},\n"
        name (q.lane + 1) (float_of_int t0 /. 1e3)
        (float_of_int (t1 - t0) /. 1e3) q.id sid parent
    in
    let root = 4 * q.id + 1 in
    span "client.req" root 0 q.due t_done;
    span "client.send" (root + 1) root q.due q.t_sent;
    span "client.wait" (root + 2) root q.t_sent t_recv;
    span "client.check" (root + 3) root t_recv t_done

let write_trace t path =
  match t.trace with
  | None -> ()
  | Some b ->
    let oc = open_out path in
    output_string oc "{\"traceEvents\":[\n";
    (* drop the trailing ",\n" of the last event *)
    let n = Buffer.length b in
    if n >= 2 then output_string oc (Buffer.sub b 0 (n - 2));
    output_string oc "\n],\"displayTimeUnit\":\"ns\"}\n";
    close_out oc

(* ------------------------------ replies -------------------------------- *)

let release_lane t lane = t.free_lanes <- lane :: t.free_lanes

let take_lane t =
  match t.free_lanes with
  | l :: rest ->
    t.free_lanes <- rest;
    l
  | [] ->
    t.lanes <- t.lanes + 1;
    t.lanes - 1

let record q ~ok ~t_recv =
  let tl = q.tl in
  let lat = if ok then t_recv - q.due else max_int in
  let s = if P.is_write q.r then tl.writes else tl.reads in
  Samples.add s ~at:q.due lat;
  if ok then begin
    tl.acked <- tl.acked + 1;
    tl.rtt_sum <- tl.rtt_sum + (t_recv - q.t_sent)
  end
  else tl.failed <- tl.failed + 1

let complete t q resp ~t_recv =
  let ok =
    match resp with
    | Error _ | Ok (P.Busy | P.Error _) -> false
    | Ok r -> ( match q.expect with None -> true | Some e -> e = r)
  in
  if (not ok) && P.is_write q.r then Gen.mark_unsure t.model q.r;
  record q ~ok ~t_recv;
  release_lane t q.lane;
  if ok then emit_spans t q ~t_recv ~t_done:(now ())

(* Fail everything queued on a connection and open a fresh one: replies
   are matched by position, so a request that never got its reply poisons
   the rest of the connection. *)
let reset_conn t c =
  let t_recv = now () in
  Queue.iter
    (fun q ->
      if P.is_write q.r then Gen.mark_unsure t.model q.r;
      record q ~ok:false ~t_recv;
      release_lane t q.lane)
    c.pending;
  Queue.clear c.pending;
  Queue.clear c.unsent;
  Buffer.clear c.out;
  c.out_off <- 0;
  Buffer.clear c.inb;
  c.in_off <- 0;
  (try Unix.close c.fd with Unix.Unix_error _ -> ());
  c.fd <- connect t.addr

(* The next complete reply frame buffered on [c], if any. *)
let take_frame c =
  let avail = Buffer.length c.inb - c.in_off in
  let byte i = Char.code (Buffer.nth c.inb (c.in_off + i)) in
  if avail < 4 then None
  else begin
    let len = (byte 0 lsl 24) lor (byte 1 lsl 16) lor (byte 2 lsl 8) lor byte 3 in
    if avail < 4 + len then None
    else begin
      let payload = Buffer.sub c.inb (c.in_off + 4) len in
      c.in_off <- c.in_off + 4 + len;
      if c.in_off = Buffer.length c.inb then begin
        Buffer.clear c.inb;
        c.in_off <- 0
      end;
      Some payload
    end
  end

let parse_frames t c =
  let t_recv = now () in
  let rec go () =
    match take_frame c with
    | None -> ()
    | Some payload ->
      (match Queue.take_opt c.pending with
      | Some q -> complete t q (P.decode_response payload) ~t_recv
      | None -> failwith "perfbench: reply without a request");
      go ()
  in
  go ()

let read_conn t c =
  match Unix.read c.fd t.scratch 0 (Bytes.length t.scratch) with
  | 0 -> reset_conn t c
  | n ->
    Buffer.add_subbytes c.inb t.scratch 0 n;
    parse_frames t c
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  | exception Unix.Unix_error _ -> reset_conn t c

let flush_conn c =
  let len = Buffer.length c.out - c.out_off in
  if len > 0 then begin
    (match
       Unix.write_substring c.fd (Buffer.sub c.out c.out_off len) 0 len
     with
    | n -> c.out_off <- c.out_off + n
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ());
    let t_sent = now () in
    while (not (Queue.is_empty c.unsent)) && fst (Queue.peek c.unsent) <= c.out_off do
      (snd (Queue.pop c.unsent)).t_sent <- t_sent
    done;
    if c.out_off = Buffer.length c.out then begin
      Buffer.clear c.out;
      c.out_off <- 0
    end
  end

let submit t tl r ~due =
  let c = t.conns.(Gen.conn_of r nconns) in
  let q =
    { id = t.next_id; r; expect = Gen.expect t.model r; due; lane = take_lane t;
      tl; t_sent = due }
  in
  t.next_id <- t.next_id + 1;
  tl.attempted <- tl.attempted + 1;
  let payload = P.encode_request r in
  let len = String.length payload in
  Buffer.add_char c.out (Char.chr ((len lsr 24) land 0xff));
  Buffer.add_char c.out (Char.chr ((len lsr 16) land 0xff));
  Buffer.add_char c.out (Char.chr ((len lsr 8) land 0xff));
  Buffer.add_char c.out (Char.chr (len land 0xff));
  Buffer.add_string c.out payload;
  Queue.push (Buffer.length c.out, q) c.unsent;
  Queue.push q c.pending;
  c

(* ----------------------------- load loops ------------------------------ *)

type mode = Open_loop of float | Closed_loop of int

(* Send requests from [stream] until it ends, [cap] were sent or the clock
   passes [until_ns]; then collect every outstanding reply.  Returns when
   nothing is in flight. *)
let run t tl (stream : Gen.stream) ~mode ?(cap = max_int) ~until_ns () =
  let sent = ref 0 and stopped = ref false in
  let interval =
    match mode with Open_loop rate -> int_of_float (1e9 /. rate) | Closed_loop _ -> 0
  in
  let next_due = ref (now ()) in
  tl.t_begin <- !next_due;
  let issue r ~due ~t_now =
    incr sent;
    let c = submit t tl r ~due in
    if interval > 0 then Samples.add tl.late ~at:due (t_now - due);
    flush_conn c
  in
  let pull () =
    if !sent >= cap then (stopped := true; None)
    else match stream () with None -> stopped := true; None | r -> r
  in
  while not (!stopped && inflight t = 0) do
    let t_now = now () in
    if t_now >= until_ns then stopped := true;
    (match mode with
    | Open_loop _ ->
      while (not !stopped) && !next_due <= t_now do
        (match pull () with
        | Some r -> issue r ~due:!next_due ~t_now
        | None -> ());
        next_due := !next_due + interval
      done
    | Closed_loop window ->
      while (not !stopped) && inflight t < window do
        match pull () with
        | Some r -> issue r ~due:(now ()) ~t_now
        | None -> ()
      done);
    let timeout_ns =
      if !stopped then 10_000_000
      else match mode with
        | Open_loop _ -> max 0 (!next_due - now ())
        | Closed_loop _ -> 10_000_000
    in
    let rd = Array.to_list (Array.map (fun c -> c.fd) t.conns) in
    let wr =
      Array.fold_left
        (fun acc c -> if Buffer.length c.out > c.out_off then c.fd :: acc else acc)
        [] t.conns
    in
    (match Unix.select rd wr [] (float_of_int timeout_ns /. 1e9) with
    | r, w, _ ->
      Array.iter
        (fun c ->
          if List.memq c.fd w then flush_conn c;
          if List.memq c.fd r then read_conn t c)
        t.conns
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
    let t_now = now () in
    Array.iter
      (fun c ->
        match Queue.peek_opt c.pending with
        | Some q when t_now - q.due > deadline_ns -> reset_conn t c
        | _ -> ())
      t.conns
  done;
  tl.t_end <- now ()

(* One request on its own, between phases (nothing else in flight). *)
let call t r =
  let c = submit t (tally ()) r ~due:(now ()) in
  let q = Queue.pop c.pending in
  release_lane t q.lane;
  let deadline = now () + deadline_ns in
  let rec wait () =
    flush_conn c;
    match take_frame c with
    | Some payload -> P.decode_response payload
    | None when now () > deadline -> failwith "perfbench: no reply before the deadline"
    | None ->
      (match Unix.select [ c.fd ] [] [] 0.01 with
      | [], _, _ -> ()
      | _ -> (
        match Unix.read c.fd t.scratch 0 (Bytes.length t.scratch) with
        | 0 -> failwith "perfbench: pkvd closed the connection"
        | n -> Buffer.add_subbytes c.inb t.scratch 0 n
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EINTR), _, _) -> ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      wait ()
  in
  match wait () with
  | Ok r -> r
  | Error m -> failwith ("perfbench: bad reply: " ^ m)

(* pkvd's STATS reply as name -> value, labelled series skipped. *)
let stats t =
  match call t P.Stats with
  | P.Text s ->
    let h = Hashtbl.create 512 in
    List.iter
      (fun line ->
        if line <> "" && line.[0] <> '#' && not (String.contains line '{') then
          match String.split_on_char ' ' line with
          | [ k; v ] -> (
            match float_of_string_opt v with Some f -> Hashtbl.replace h k f | None -> ())
          | _ -> ())
      (String.split_on_char '\n' s);
    h
  | _ -> failwith "perfbench: STATS did not return text"

let stat h k = Option.value (Hashtbl.find_opt h k) ~default:0.
let delta a b k = stat b k -. stat a k
