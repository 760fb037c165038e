(* Persistency-order checker — a pmemcheck-style durability tracer for
   the simulated NVM (after Raad et al., "Intel PMDK Transactions:
   Specification, Validation and Concurrency", which validates PMDK with
   a per-cache-line persistency state machine).

   Every word of a checked region carries a shadow persistency state,
   advanced by the same events the write-combining pipeline in pmem.ml
   reacts to:

                 store            flush(line)            fence
     durable ----------> dirty ----------------> posted --------> durable
        ^                  |                                         ^
        |                  |   crash: every word still dirty or      |
        +------------------+   posted-but-undrained becomes LOST ----+
                               (stamped with the storing site)

   The machine mirrors the pipeline exactly: a flush posts the whole
   line into the calling domain's pending set (a re-flush of a line
   already in that set is absorbed, like clwb idempotence); a fence
   drains only the calling domain's posted lines and makes every word
   of a drained line durable at its fence-time contents (the drain
   copies the line, so a store issued between flush and fence is
   covered).  It does so in BOTH pmem modes: under Synchronous pmem
   every flush is durable immediately, but the checker still holds the
   code to the pipelined discipline, so its findings — like the
   flush/fence counts themselves — are mode-invariant.

   Three finding classes, each attributed to a caller-registered site
   (an interned string like "ralloc.sb_provision", set per domain with
   [set_site] and read at event time):

   - durability violations: a word read after [Pmem.crash] whose last
     pre-crash store was never drained durable — the read returns stale
     data.  Reported once per torn line, attributed to the site of the
     lost store, and suppressed (but still tallied) for allowlisted
     sites whose torn reads are by design (e.g. the checksummed
     persistent rings, site [obs.pring]).
   - wasted flushes: a flush of a line with no dirty words (nothing to
     persist) or of a line already posted by this domain (the pipeline
     dedups it) — the paper's direct "optimize persistence" metric.
   - wasted fences: a fence draining an empty pending set.

   Zero cost when disabled: every pmem hook is guarded by one plain
   [on ()] flag test, no shadow memory is allocated, and [set_site] is
   a no-op.  Setting the PCHECK environment variable (to anything but
   "" or "0") enables the checker at module load, so `PCHECK=1 dune
   runtest` runs the crash suites under it. *)

let words_per_line = 8

let enabled_flag = ref false
let on () = !enabled_flag
let set_enabled b = enabled_flag := b
let enabled () = !enabled_flag

let () =
  match Sys.getenv_opt "PCHECK" with
  | Some s when s <> "" && s <> "0" -> enabled_flag := true
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Sites                                                              *)
(* ------------------------------------------------------------------ *)

type site_stat = {
  flushes : int Atomic.t;
  wflush_clean : int Atomic.t;
  wflush_dup : int Atomic.t;
  fences : int Atomic.t;
  wfences : int Atomic.t;
  violations : int Atomic.t;
  allowed_violations : int Atomic.t;
  mutable allow_reason : string option;
}

let new_stat () =
  {
    flushes = Atomic.make 0;
    wflush_clean = Atomic.make 0;
    wflush_dup = Atomic.make 0;
    fences = Atomic.make 0;
    wfences = Atomic.make 0;
    violations = Atomic.make 0;
    allowed_violations = Atomic.make 0;
    allow_reason = None;
  }

let site_lock = Mutex.create ()
let site_ids : (string, int) Hashtbl.t = Hashtbl.create 64
let site_names = ref (Array.make 16 "")
let site_stats = ref (Array.init 16 (fun _ -> new_stat ()))
let nsites = ref 0

(* Interning is registration-time only (module init, heap create), never
   on the persistence hot path, so a mutex is fine. *)
let site name =
  Mutex.lock site_lock;
  let id =
    match Hashtbl.find_opt site_ids name with
    | Some id -> id
    | None ->
      let id = !nsites in
      if id = Array.length !site_names then begin
        let names = Array.make (2 * id) "" in
        Array.blit !site_names 0 names 0 id;
        let stats =
          Array.init (2 * id) (fun i ->
              if i < id then !site_stats.(i) else new_stat ())
        in
        (* stats first: a racing reader indexing the old names array must
           never see a stat slot that does not exist yet *)
        site_stats := stats;
        site_names := names
      end;
      !site_names.(id) <- name;
      Hashtbl.add site_ids name id;
      incr nsites;
      id
  in
  Mutex.unlock site_lock;
  id

(* Site 0 catches traffic from code that never registered. *)
let unattributed = site "(unattributed)"

let site_name id =
  if id >= 0 && id < !nsites then !site_names.(id) else "(unknown)"

let stat id =
  let s = !site_stats in
  if id >= 0 && id < Array.length s then s.(id) else s.(unattributed)

let allow name ~reason =
  let id = site name in
  (stat id).allow_reason <- Some reason;
  id

(* The ambient site is per-domain: the last [set_site] before a
   persistence event owns it, pmemcheck-style region ownership. *)
let site_key = Domain.DLS.new_key (fun () -> ref 0)
let set_site id = if !enabled_flag then Domain.DLS.get site_key := id
let current_site () = !(Domain.DLS.get site_key)

let with_site id f =
  if not !enabled_flag then f ()
  else begin
    let r = Domain.DLS.get site_key in
    let old = !r in
    r := id;
    Fun.protect ~finally:(fun () -> r := old) f
  end

(* ------------------------------------------------------------------ *)
(* Global tallies                                                     *)
(* ------------------------------------------------------------------ *)

let obs_violations = Obs.Counter.make "pcheck.violations"
let obs_wasted_flush = Obs.Counter.make "pcheck.wasted_flush"
let obs_wasted_fence = Obs.Counter.make "pcheck.wasted_fence"

(* Fence epochs number the durable transitions; a violation reports the
   epoch of the crash that lost the store and the epoch of the read. *)
let epoch = Atomic.make 1
let current_epoch () = Atomic.get epoch

type violation = {
  v_site : string;
  v_region : string;
  v_line : int;
  v_word : int;
  v_crash_epoch : int;
  v_read_epoch : int;
  v_allowed : bool;
}

let violation_cap = 512
let violations_lock = Mutex.create ()
let violation_list : violation list ref = ref []
let violation_seen = ref 0

let violations () = List.rev !violation_list

(* ------------------------------------------------------------------ *)
(* Per-region shadow                                                  *)
(* ------------------------------------------------------------------ *)

type posted = { mutable plines : int array; mutable pcount : int }

type shadow = {
  sh_name : string;
  sh_nwords : int;
  (* 0 = clean/durable; s+1 = dirty or posted-undrained, last store by
     site s.  Racy cross-domain writes are benign: the checker only ever
     misattributes a racing line, it cannot crash or misindex. *)
  word_site : int array;
  posted_key : posted Domain.DLS.key;
  posted_all : posted list ref;
  posted_lock : Mutex.t;
  (* word -> (storing site, epoch of the crash that lost it) *)
  lost : (int, int * int) Hashtbl.t;
  mutable lost_count : int;
  lost_lock : Mutex.t;
}

let make_shadow ~name ~nwords =
  let posted_lock = Mutex.create () in
  let posted_all = ref [] in
  let posted_key =
    Domain.DLS.new_key (fun () ->
        let p = { plines = Array.make 16 0; pcount = 0 } in
        Mutex.lock posted_lock;
        posted_all := p :: !posted_all;
        Mutex.unlock posted_lock;
        p)
  in
  {
    sh_name = name;
    sh_nwords = nwords;
    word_site = Array.make nwords 0;
    posted_key;
    posted_all;
    posted_lock;
    lost = Hashtbl.create 64;
    lost_count = 0;
    lost_lock = Mutex.create ();
  }

let on_store sh w =
  sh.word_site.(w) <- current_site () + 1;
  if sh.lost_count > 0 then begin
    (* overwriting a lost word supersedes the lost store: nothing stale
       can be read from it any more *)
    Mutex.lock sh.lost_lock;
    if Hashtbl.mem sh.lost w then begin
      Hashtbl.remove sh.lost w;
      sh.lost_count <- sh.lost_count - 1
    end;
    Mutex.unlock sh.lost_lock
  end

let record_violation sh ~word ~site_id ~crash_epoch =
  let st = stat site_id in
  let allowed = st.allow_reason <> None in
  if allowed then Atomic.incr st.allowed_violations
  else begin
    Atomic.incr st.violations;
    Obs.Counter.incr obs_violations;
    Obs.Trace.instant ("pcheck.violation:" ^ site_name site_id)
  end;
  Mutex.lock violations_lock;
  incr violation_seen;
  if !violation_seen <= violation_cap then
    violation_list :=
      {
        v_site = site_name site_id;
        v_region = sh.sh_name;
        v_line = word / words_per_line;
        v_word = word;
        v_crash_epoch = crash_epoch;
        v_read_epoch = current_epoch ();
        v_allowed = allowed;
      }
      :: !violation_list;
  Mutex.unlock violations_lock

let check_lost sh w =
  Mutex.lock sh.lost_lock;
  match Hashtbl.find_opt sh.lost w with
  | None -> Mutex.unlock sh.lost_lock
  | Some (site_id, crash_epoch) ->
    (* One finding per torn line: its words were lost by the same
       undrained write-back, so drop them all before reporting. *)
    let base = w / words_per_line * words_per_line in
    for x = base to base + words_per_line - 1 do
      if Hashtbl.mem sh.lost x then begin
        Hashtbl.remove sh.lost x;
        sh.lost_count <- sh.lost_count - 1
      end
    done;
    Mutex.unlock sh.lost_lock;
    record_violation sh ~word:w ~site_id ~crash_epoch

let on_load sh w = if sh.lost_count > 0 then check_lost sh w

let on_flush sh ~line =
  let st = stat (current_site ()) in
  Atomic.incr st.flushes;
  let p = Domain.DLS.get sh.posted_key in
  (* same newest-first dedup scan as the pipeline's enqueue_line *)
  let i = ref (p.pcount - 1) in
  while !i >= 0 && p.plines.(!i) <> line do
    decr i
  done;
  if !i >= 0 then begin
    Atomic.incr st.wflush_dup;
    Obs.Counter.incr obs_wasted_flush
  end
  else begin
    let base = line * words_per_line in
    let dirty = ref false in
    for w = base to base + words_per_line - 1 do
      if sh.word_site.(w) <> 0 then dirty := true
    done;
    if not !dirty then begin
      Atomic.incr st.wflush_clean;
      Obs.Counter.incr obs_wasted_flush
    end;
    (* posted either way — the pipeline pays to drain clean lines too *)
    if p.pcount = Array.length p.plines then begin
      let bigger = Array.make (2 * p.pcount) 0 in
      Array.blit p.plines 0 bigger 0 p.pcount;
      p.plines <- bigger
    end;
    p.plines.(p.pcount) <- line;
    p.pcount <- p.pcount + 1
  end

let on_fence sh =
  let st = stat (current_site ()) in
  Atomic.incr st.fences;
  let p = Domain.DLS.get sh.posted_key in
  if p.pcount = 0 then begin
    Atomic.incr st.wfences;
    Obs.Counter.incr obs_wasted_fence
  end
  else begin
    ignore (Atomic.fetch_and_add epoch 1);
    (* the drain copies each line at fence time, so every word of a
       drained line is durable — including stores made after the flush *)
    for i = 0 to p.pcount - 1 do
      let base = p.plines.(i) * words_per_line in
      for w = base to base + words_per_line - 1 do
        sh.word_site.(w) <- 0
      done
    done;
    p.pcount <- 0
  end

(* A spontaneous eviction persists the line's current contents: durable,
   though never requested.  The line stays in any posted set it is in,
   exactly like the pipeline (a later drain re-flushes it harmlessly). *)
let on_evict sh ~line =
  let base = line * words_per_line in
  for w = base to base + words_per_line - 1 do
    sh.word_site.(w) <- 0
  done

let on_crash sh =
  Mutex.lock sh.posted_lock;
  List.iter (fun p -> p.pcount <- 0) !(sh.posted_all);
  Mutex.unlock sh.posted_lock;
  let ce = current_epoch () in
  Mutex.lock sh.lost_lock;
  for w = 0 to sh.sh_nwords - 1 do
    let s = sh.word_site.(w) in
    if s <> 0 then begin
      sh.word_site.(w) <- 0;
      if not (Hashtbl.mem sh.lost w) then sh.lost_count <- sh.lost_count + 1;
      Hashtbl.replace sh.lost w (s - 1, ce)
    end
  done;
  Mutex.unlock sh.lost_lock

(* Graceful close: every domain's posted lines drain.  Dirty-but-never-
   flushed words stay dirty — close_file does not persist those. *)
let on_drain_all sh =
  Mutex.lock sh.posted_lock;
  List.iter
    (fun p ->
      for i = 0 to p.pcount - 1 do
        let base = p.plines.(i) * words_per_line in
        for w = base to base + words_per_line - 1 do
          sh.word_site.(w) <- 0
        done
      done;
      p.pcount <- 0)
    !(sh.posted_all);
  Mutex.unlock sh.posted_lock

(* flush_all supersedes everything with a full-image copy: every word is
   durable at its current contents.  Lost words stay lost — a full copy
   of the post-crash view cannot resurrect a pre-crash store, so reads
   of never-rewritten lost words still flag. *)
let on_flush_all sh =
  Mutex.lock sh.posted_lock;
  List.iter (fun p -> p.pcount <- 0) !(sh.posted_all);
  Mutex.unlock sh.posted_lock;
  Array.fill sh.word_site 0 sh.sh_nwords 0

(* ------------------------------------------------------------------ *)
(* Reporting                                                          *)
(* ------------------------------------------------------------------ *)

type totals = {
  t_flushes : int;
  t_fences : int;
  t_wasted_flush_clean : int;
  t_wasted_flush_dup : int;
  t_wasted_fences : int;
  t_violations : int;
  t_allowed_violations : int;
}

let totals () =
  let n = !nsites and stats = !site_stats in
  let acc =
    ref
      {
        t_flushes = 0;
        t_fences = 0;
        t_wasted_flush_clean = 0;
        t_wasted_flush_dup = 0;
        t_wasted_fences = 0;
        t_violations = 0;
        t_allowed_violations = 0;
      }
  in
  for i = 0 to n - 1 do
    let s = stats.(i) and a = !acc in
    acc :=
      {
        t_flushes = a.t_flushes + Atomic.get s.flushes;
        t_fences = a.t_fences + Atomic.get s.fences;
        t_wasted_flush_clean = a.t_wasted_flush_clean + Atomic.get s.wflush_clean;
        t_wasted_flush_dup = a.t_wasted_flush_dup + Atomic.get s.wflush_dup;
        t_wasted_fences = a.t_wasted_fences + Atomic.get s.wfences;
        t_violations = a.t_violations + Atomic.get s.violations;
        t_allowed_violations =
          a.t_allowed_violations + Atomic.get s.allowed_violations;
      }
  done;
  !acc

let diff a b =
  {
    t_flushes = a.t_flushes - b.t_flushes;
    t_fences = a.t_fences - b.t_fences;
    t_wasted_flush_clean = a.t_wasted_flush_clean - b.t_wasted_flush_clean;
    t_wasted_flush_dup = a.t_wasted_flush_dup - b.t_wasted_flush_dup;
    t_wasted_fences = a.t_wasted_fences - b.t_wasted_fences;
    t_violations = a.t_violations - b.t_violations;
    t_allowed_violations = a.t_allowed_violations - b.t_allowed_violations;
  }

let wasted_flushes t = t.t_wasted_flush_clean + t.t_wasted_flush_dup

let reset () =
  Mutex.lock site_lock;
  for i = 0 to !nsites - 1 do
    let s = !site_stats.(i) in
    Atomic.set s.flushes 0;
    Atomic.set s.wflush_clean 0;
    Atomic.set s.wflush_dup 0;
    Atomic.set s.fences 0;
    Atomic.set s.wfences 0;
    Atomic.set s.violations 0;
    Atomic.set s.allowed_violations 0
  done;
  Mutex.unlock site_lock;
  Mutex.lock violations_lock;
  violation_list := [];
  violation_seen := 0;
  Mutex.unlock violations_lock

(* Sites with any activity (or an allowlist entry), heaviest waste
   first, for the text and Prometheus reports. *)
let active_sites () =
  let rows = ref [] in
  for i = !nsites - 1 downto 0 do
    let s = stat i in
    if
      Atomic.get s.flushes <> 0
      || Atomic.get s.fences <> 0
      || Atomic.get s.violations <> 0
      || Atomic.get s.allowed_violations <> 0
      || s.allow_reason <> None
    then rows := (site_name i, s) :: !rows
  done;
  let weight s =
    (Atomic.get s.violations * 1_000_000)
    + Atomic.get s.wflush_clean + Atomic.get s.wflush_dup
    + Atomic.get s.wfences
  in
  List.stable_sort (fun (_, a) (_, b) -> compare (weight b) (weight a)) !rows

let report ppf =
  let t = totals () in
  Format.fprintf ppf "persistency checker (epoch %d)@." (current_epoch ());
  Format.fprintf ppf
    "  flushes=%d wasted_flush=%d (clean=%d dup=%d) fences=%d \
     wasted_fence=%d violations=%d allowlisted=%d@."
    t.t_flushes (wasted_flushes t) t.t_wasted_flush_clean t.t_wasted_flush_dup
    t.t_fences t.t_wasted_fences t.t_violations t.t_allowed_violations;
  Format.fprintf ppf "  %-28s %10s %8s %8s %8s %8s %6s@." "site" "flushes"
    "w.clean" "w.dup" "fences" "w.fence" "viol";
  List.iter
    (fun (name, s) ->
      Format.fprintf ppf "  %-28s %10d %8d %8d %8d %8d %6d%s@." name
        (Atomic.get s.flushes) (Atomic.get s.wflush_clean)
        (Atomic.get s.wflush_dup) (Atomic.get s.fences) (Atomic.get s.wfences)
        (Atomic.get s.violations)
        (match s.allow_reason with
        | Some r ->
          Printf.sprintf "  [allowlisted (%d): %s]"
            (Atomic.get s.allowed_violations) r
        | None -> ""))
    (active_sites ());
  let vs = violations () in
  if vs <> [] then begin
    Format.fprintf ppf "  violations (%d recorded%s):@." (List.length vs)
      (if !violation_seen > violation_cap then
         Printf.sprintf ", %d dropped" (!violation_seen - violation_cap)
       else "");
    List.iteri
      (fun i v ->
        if i < 16 then
          Format.fprintf ppf
            "    %s: region=%s line=%d word=%d lost@epoch=%d read@epoch=%d%s@."
            v.v_site v.v_region v.v_line v.v_word v.v_crash_epoch
            v.v_read_epoch
            (if v.v_allowed then " (allowlisted)" else ""))
      vs;
    if List.length vs > 16 then
      Format.fprintf ppf "    ... %d more@." (List.length vs - 16)
  end

let prometheus ppf =
  let sample metric help l =
    Format.fprintf ppf "# HELP %s %s@.# TYPE %s counter@." metric help metric;
    List.iter
      (fun (name, v) ->
        if v <> 0 then
          Format.fprintf ppf "%s{site=\"%s\"} %d@." metric name v)
      l
  in
  let sites = active_sites () in
  let col f = List.map (fun (n, s) -> (n, f s)) sites in
  sample "pcheck_flushes_total" "flushes observed by the persistency checker"
    (col (fun s -> Atomic.get s.flushes));
  sample "pcheck_wasted_flush_total"
    "flushes of clean or already-posted lines"
    (col (fun s -> Atomic.get s.wflush_clean + Atomic.get s.wflush_dup));
  sample "pcheck_fences_total" "fences observed by the persistency checker"
    (col (fun s -> Atomic.get s.fences));
  sample "pcheck_wasted_fence_total" "fences draining an empty pending set"
    (col (fun s -> Atomic.get s.wfences));
  sample "pcheck_violations_total" "durability violations (stale reads)"
    (col (fun s -> Atomic.get s.violations));
  sample "pcheck_allowlisted_violations_total"
    "suppressed violations at allowlisted sites"
    (col (fun s -> Atomic.get s.allowed_violations))

(* Per-site waste as Chrome counter tracks, alongside the violation
   instants emitted at detection time — `bench --pcheck --trace F` gets
   both in one file. *)
let trace_report () =
  List.iter
    (fun (name, s) ->
      let w = Atomic.get s.wflush_clean + Atomic.get s.wflush_dup in
      if w > 0 then Obs.Trace.counter ("pcheck.wasted_flush:" ^ name) w;
      let wf = Atomic.get s.wfences in
      if wf > 0 then Obs.Trace.counter ("pcheck.wasted_fence:" ^ name) wf)
    (active_sites ())
