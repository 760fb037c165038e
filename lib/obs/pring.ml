(* ------------------------------------------------------------------ *)
(* Checksummed persistent ring                                        *)
(*                                                                    *)
(* The one crash-surviving record protocol under every black box: the *)
(* flight recorder, the provenance ring, the metrics rings, and the    *)
(* name tables that label them.  This module owns the slot layout, the *)
(* checksum, torn-record detection and the head rebuild; the views in  *)
(* obs.ml own only their payload meaning.  See pring.mli.              *)
(* ------------------------------------------------------------------ *)

type backend = {
  words : int;
  load : int -> int;
  store : int -> int -> unit;
  fetch_add : int -> int -> int;
  flush : int -> unit;
  fence : unit -> unit;
}

let line_words = 8
let max_lines = 8

(* ---- header line ---- *)

let stamp b ~magic geometry =
  b.store 0 magic;
  Array.iteri (fun i v -> b.store (i + 1) v) geometry

let stamped b ~magic n =
  if b.words < line_words || b.load 0 <> magic then None
  else Some (Array.init n (fun i -> b.load (i + 1)))

let zero b ~base ~words =
  for w = base to base + words - 1 do
    b.store w 0
  done

(* ---- checksum ---- *)

(* 62-bit splitmix-style mix of the seq and every payload word (wrapping
   multiplication), forced nonzero so a zeroed slot can never look
   checksummed.  A loop over an array: the write path allocates nothing. *)
let checksum seq p n =
  let mix h v =
    let h = h lxor (v + 0x1e3779b97f4a7c15 + (h lsl 6) + (h lsr 2)) in
    let h = h * 0x3f58476d1ce4e5b9 in
    h lxor (h lsr 27)
  in
  let h = ref (mix 0x52414C4C4F43 seq) in
  for i = 0 to n - 1 do
    h := mix !h p.(i)
  done;
  let h = !h land max_int in
  if h = 0 then 1 else h

(* ---- rings ---- *)

type t = {
  b : backend;
  base : int;
  lines : int;
  capacity : int;
  rwords : int; (* lines * line_words *)
  head : int Atomic.t; (* next seq; volatile, rebuilt at attach *)
}

let words_for ~lines ~capacity = lines * line_words * capacity
let capacity t = t.capacity
let payload_words t = t.rwords - 2
let total t = Atomic.get t.head - 1

let make b ~base ~lines ~capacity =
  if lines < 1 || lines > max_lines || capacity < 1 then
    invalid_arg "Obs.Pring: lines must be 1..8 and capacity positive";
  if base mod line_words <> 0 || base + words_for ~lines ~capacity > b.words
  then invalid_arg "Obs.Pring: window too small for the requested geometry";
  {
    b;
    base;
    lines;
    capacity;
    rwords = lines * line_words;
    head = Atomic.make 1;
  }

let format b ~base ~lines ~capacity =
  let t = make b ~base ~lines ~capacity in
  zero b ~base ~words:(words_for ~lines ~capacity);
  t

let scratch_key =
  Domain.DLS.new_key (fun () -> Array.make (max_lines * line_words) 0)

let scratch () = Domain.DLS.get scratch_key

let append t p =
  let seq = Atomic.fetch_and_add t.head 1 in
  let w0 = t.base + ((seq - 1) mod t.capacity * t.rwords) in
  let n = t.rwords - 2 in
  t.b.store w0 seq;
  for i = 0 to n - 1 do
    t.b.store (w0 + 1 + i) p.(i)
  done;
  t.b.store (w0 + n + 1) (checksum seq p n);
  for l = 0 to t.lines - 1 do
    t.b.flush (w0 + (l * line_words))
  done

(* [Some (seq, payload)] if slot [s] holds a complete record, [None] if
   it is empty or torn (checksum mismatch). *)
let read_slot t s =
  let w0 = t.base + (s * t.rwords) in
  let seq = t.b.load w0 in
  if seq = 0 then None
  else
    let n = t.rwords - 2 in
    let p = Array.init n (fun i -> t.b.load (w0 + 1 + i)) in
    if t.b.load (w0 + n + 1) = checksum seq p n then Some (seq, p) else None

let records t =
  let acc = ref [] in
  for s = 0 to t.capacity - 1 do
    match read_slot t s with Some r -> acc := r :: !acc | None -> ()
  done;
  List.sort (fun (x, _) (y, _) -> compare x y) !acc

(* The head is never persisted: the next seq is one past the newest
   valid record. *)
let attach b ~base ~lines ~capacity =
  let t = make b ~base ~lines ~capacity in
  let hi = List.fold_left (fun hi (seq, _) -> max hi seq) 0 (records t) in
  Atomic.set t.head (hi + 1);
  t

let fold t f init =
  List.fold_left (fun acc (seq, p) -> f acc ~seq p) init (records t)

let torn_slots t =
  let n = ref 0 in
  for s = 0 to t.capacity - 1 do
    if t.b.load (t.base + (s * t.rwords)) <> 0 && read_slot t s = None then
      incr n
  done;
  !n

(* ---- name tables ---- *)

module Names = struct
  let max_name = 49

  type t = { b : backend; base : int; capacity : int }

  let words_for ~capacity = capacity * line_words
  let capacity t = t.capacity

  let make b ~base ~capacity =
    if capacity < 1 || base mod line_words <> 0
       || base + words_for ~capacity > b.words
    then invalid_arg "Obs.Pring.Names: window too small for capacity";
    { b; base; capacity }

  let format b ~base ~capacity =
    let t = make b ~base ~capacity in
    zero b ~base ~words:(words_for ~capacity);
    t

  let attach = make

  (* Word 0 = length in bytes (0 = empty), stored last; words 1..7 = up
     to 49 bytes packed 7 per word little-endian.  Durable on return. *)
  let persist t id name =
    if id >= 0 && id < t.capacity then begin
      let w0 = t.base + (id * line_words) in
      let n = min (String.length name) max_name in
      for wi = 0 to 6 do
        let word = ref 0 in
        for bi = 0 to 6 do
          let i = (wi * 7) + bi in
          if i < n then word := !word lor (Char.code name.[i] lsl (bi * 8))
        done;
        t.b.store (w0 + 1 + wi) !word
      done;
      t.b.store w0 n;
      t.b.flush w0;
      t.b.fence ()
    end

  let name t id =
    if id < 0 || id >= t.capacity then None
    else
      let w0 = t.base + (id * line_words) in
      let n = t.b.load w0 in
      if n <= 0 || n > max_name then None
      else
        let byte i = (t.b.load (w0 + 1 + (i / 7)) lsr (i mod 7 * 8)) land 0xFF in
        Some (String.init n (fun i -> Char.chr (byte i)))

  let count t =
    let n = ref 0 in
    for id = 0 to t.capacity - 1 do
      if name t id <> None then incr n
    done;
    !n
end
