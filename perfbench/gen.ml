(* Workload op streams and the client-side model that predicts every reply.

   Every stream is a pure function of the seed and the op index, so two runs
   with one seed send the same requests.  The model is updated when a request
   is sent, not when it is acked: each key is pinned to one connection and
   pkvd serves one key on one worker in arrival order, so a read sees exactly
   the writes sent before it on that key. *)

module P = Server.Proto
module Rng = Workloads.Harness.Rng

type kind = Ingest_seq | Read_mostly | String_churn

type spec = {
  kind : kind;
  name : string;
  keys : int;  (** ingest_seq: SETs per round; others: preloaded key space *)
  rate : float;  (** open-loop request rate, ops/s (0: no open-loop phase) *)
  window : int;  (** closed-loop in-flight window *)
  closed_cap : int;  (** closed-loop op cap (bounds the server-mode leak) *)
}

(* The open-loop rates sit at about a third of the closed-loop throughput
   measured on a 2-core VM, so pkvd keeps up in every run; the caps keep
   string_churn's leaked nodes well inside the default 64 MiB heap. *)
let specs =
  [
    { kind = Ingest_seq; name = "ingest_seq"; keys = 3000; rate = 0.;
      window = 8; closed_cap = 0 };
    { kind = Read_mostly; name = "read_mostly"; keys = 20_000; rate = 10_000.;
      window = 8; closed_cap = 0 };
    { kind = String_churn; name = "string_churn"; keys = 8192; rate = 3300.;
      window = 8; closed_cap = 40_000 };
  ]

let find name = List.find_opt (fun s -> s.name = name) specs

(* ------------------------------- keys ---------------------------------- *)

(* Scrambled int keys: multiplication by an odd constant is a bijection
   modulo 2^32, so distinct indices give distinct keys. *)
let int_key i = ((i * 2654435761) land 0xFFFF_FFFF) + 1
let str_key i = Printf.sprintf "user:%08d" i

(* A deterministic 62-bit mix, for values derived from (seed, index). *)
let mix a b =
  let x = (a * 0x1E3779B97F4A7C15) lxor (b * 0x3F58476D1CE4E5B9) in
  let x = x lxor (x lsr 31) in
  (x * 0x14D049BB133111EB) land 0x3FFF_FFFF_FFFF_FFFF

(* Value sizes for string_churn: several Ralloc size classes, from tens of
   bytes to a few KiB, weighted towards the small end. *)
let value_sizes = [| 24; 24; 24; 96; 96; 96; 384; 384; 1536; 3072 |]

let str_value seed i size =
  let b = Bytes.make size (Char.chr (97 + (mix seed i mod 26))) in
  let tag = string_of_int i in
  Bytes.blit_string tag 0 b 0 (min size (String.length tag));
  Bytes.unsafe_to_string b

(* ------------------------------- model --------------------------------- *)

type key = Ikey of int | Skey of string | Nokey

type model = {
  ints : (int, int) Hashtbl.t;
  strs : (string, string) Hashtbl.t;
  unsure : (key, unit) Hashtbl.t;
      (** keys whose state a failed write left unknown: not checked again *)
}

let model () =
  { ints = Hashtbl.create 65536; strs = Hashtbl.create 16384;
    unsure = Hashtbl.create 16 }

let key_of = function
  | P.Get k | P.Set (k, _) | P.Del k -> Ikey k
  | P.Sget k | P.Sset (k, _) | P.Sdel k -> Skey k
  | P.Stats | P.Flush | P.Ping -> Nokey

(* The reply the model predicts for [req], applying a write to the model.
   [None]: the key's state is unknown, so the reply is not checked. *)
let expect m req =
  let known = not (Hashtbl.mem m.unsure (key_of req)) in
  let pred =
    match req with
    | P.Get k -> (
      match Hashtbl.find_opt m.ints k with
      | Some v -> P.Value v
      | None -> P.Not_found)
    | P.Set (k, v) ->
      Hashtbl.replace m.ints k v;
      P.Ok
    | P.Del k ->
      let had = Hashtbl.mem m.ints k in
      Hashtbl.remove m.ints k;
      if had then P.Ok else P.Not_found
    | P.Sget k -> (
      match Hashtbl.find_opt m.strs k with
      | Some v -> P.Svalue v
      | None -> P.Not_found)
    | P.Sset (k, v) ->
      Hashtbl.replace m.strs k v;
      P.Ok
    | P.Sdel k ->
      let had = Hashtbl.mem m.strs k in
      Hashtbl.remove m.strs k;
      if had then P.Ok else P.Not_found
    | P.Stats | P.Flush | P.Ping -> P.Ok
  in
  if known then Some pred else None

let mark_unsure m req =
  match key_of req with Nokey -> () | k -> Hashtbl.replace m.unsure k ()

(* Key and value bytes of the bindings the model knows are live: the
   denominator of space_amp. *)
let live_bytes m =
  let b = ref (16 * Hashtbl.length m.ints) in
  Hashtbl.iter (fun k v -> b := !b + String.length k + String.length v) m.strs;
  !b

(* Read-back requests for every binding the model knows, deleted string
   keys included (they must stay deleted). *)
let readback spec m =
  let reqs = ref [] in
  (match spec.kind with
  | String_churn ->
    for i = spec.keys - 1 downto 0 do
      reqs := P.Sget (str_key i) :: !reqs
    done
  | Ingest_seq | Read_mostly ->
    Hashtbl.iter (fun k _ -> reqs := P.Get k :: !reqs) m.ints);
  Array.of_list !reqs

(* ------------------------------- streams ------------------------------- *)

(* A stream hands out requests on demand; [None] ends it. *)
type stream = unit -> P.request option

let of_array a : stream =
  let i = ref 0 in
  fun () ->
    if !i >= Array.length a then None
    else begin
      let r = a.(!i) in
      incr i;
      Some r
    end

(* Preload: every key of the space bound once. *)
let preload spec seed : stream =
  let i = ref 0 in
  fun () ->
    if !i >= spec.keys then None
    else begin
      let n = !i in
      incr i;
      match spec.kind with
      | Read_mostly -> Some (P.Set (int_key n, mix seed n))
      | String_churn ->
        let size = value_sizes.(mix seed n mod Array.length value_sizes) in
        Some (P.Sset (str_key n, str_value seed n size))
      | Ingest_seq -> None
    end

(* One ingest round: [spec.keys] SETs of increasing int keys, with about 5%
   GETs of the 64 most recently sent keys mixed in. *)
let ingest spec seed : stream =
  let rng = Rng.make seed and next = ref 0 in
  fun () ->
    if !next >= spec.keys then None
    else if !next > 0 && Rng.below rng 100 < 5 then
      Some (P.Get (!next - Rng.below rng (min 64 !next)))
    else begin
      incr next;
      Some (P.Set (!next, mix seed !next))
    end

(* The steady mix after preload; endless.  [phase] separates the value
   namespaces of successive phases. *)
let mixed spec seed ~phase : stream =
  let rng = Rng.make (mix seed (phase + 7)) and n = ref 0 in
  match spec.kind with
  | Ingest_seq -> ingest spec seed
  | Read_mostly ->
    let z = Workloads.Ycsb.make_zipf spec.keys in
    fun () ->
      incr n;
      let k = int_key (Workloads.Ycsb.next z rng) in
      if Rng.below rng 100 < 95 then Some (P.Get k)
      else Some (P.Set (k, mix (seed + phase) !n))
  | String_churn ->
    fun () ->
      incr n;
      let k = str_key (Rng.below rng spec.keys) in
      let dice = Rng.below rng 100 in
      if dice < 50 then
        let size = value_sizes.(Rng.below rng (Array.length value_sizes)) in
        Some (P.Sset (k, str_value (seed + phase) !n size))
      else if dice < 80 then Some (P.Sget k)
      else Some (P.Sdel k)

(* Keys are pinned to connections by a hash bit the dispatcher does not use
   (pkvd shards by [hash mod workers]), so both connections reach both
   workers. *)
let conn_of req nconns =
  match P.shard_key req with
  | Some h -> (h lsr 3) mod nconns
  | None -> 0
