(* 4-ary index heap. The ordering keys live in two parallel unboxed
   arrays — [times : float array] (flat float array, no per-element
   boxing) and [seqs : int array] — so a sift touches only contiguous
   scalar arrays; the payloads sit in a side table of slim handles that
   the comparison loop never reads. With 4 children per node the tree
   is half as deep as a binary heap and the children of [i] occupy the
   adjacent slots [4i+1 .. 4i+4], which is the cache-friendly part.

   The handle a caller gets back from [push] carries only the payload
   and a state word (live / cancelled / departed); cancellation flips
   the state without touching the arrays, exactly like the old boxed
   heap's [cancelled] flag. Pop order is the same pure function of the
   [(time, seq)] keys as before, so digests — and the [entries]
   pop-order contract checkpoint/restore depends on — are unchanged. *)

let state_live = 0
let state_cancelled = 1
let state_departed = 2

type 'a entry = { payload : 'a; mutable state : int }

(* Entry slots at or beyond [len] hold [filler], an entry built from
   the caller's filler payload, and a popped slot is reset to it, so
   the heap never retains a payload it no longer owns. Slots hold
   entries directly: a typed filler costs no [Some] box per push, and
   unlike a dummy built with [Obj.magic] it gives the compiler nothing
   to mistype. *)
type 'a t = {
  mutable times : float array;
  mutable seqs : int array;
  mutable ents : 'a entry array;
  mutable len : int;
  mutable next_seq : int;
  mutable live : int;
  filler : 'a entry;
}

let create filler =
  {
    times = [||];
    seqs = [||];
    ents = [||];
    len = 0;
    next_seq = 0;
    live = 0;
    filler = { payload = filler; state = state_departed };
  }

let size t = t.live

let is_empty t = t.live = 0

let capacity t = Array.length t.ents

(* Arrays only ever grew before this heap existed; a long-lived forked
   prefix image that drains from 10k guests to a handful would retain
   the peak-sized arrays forever. Halve once occupancy falls to a
   quarter of capacity (growth doubles at full, so the two policies
   leave a 2x hysteresis band and cannot thrash), and never shrink
   below a floor that keeps small heaps allocation-quiet. *)
let shrink_floor = 1024

let resize t ncap =
  let ntimes = Array.make ncap 0.0 in
  let nseqs = Array.make ncap 0 in
  let nents = Array.make ncap t.filler in
  Array.blit t.times 0 ntimes 0 t.len;
  Array.blit t.seqs 0 nseqs 0 t.len;
  Array.blit t.ents 0 nents 0 t.len;
  t.times <- ntimes;
  t.seqs <- nseqs;
  t.ents <- nents

let maybe_shrink t =
  let cap = Array.length t.ents in
  if cap > shrink_floor && t.len <= cap / 4 then
    resize t (max shrink_floor (cap / 2))

let ensure_capacity t =
  let cap = Array.length t.ents in
  if t.len >= cap then resize t (if cap = 0 then 16 else 2 * cap)

(* Hole-based sift: bubble an empty slot through the arrays and write
   the moving key exactly once at its final position, instead of
   swapping three arrays at every level. *)
let sift_down_from t i time seq ent =
  let times = t.times and seqs = t.seqs and ents = t.ents in
  let len = t.len in
  let i = ref i in
  let continue = ref true in
  while !continue do
    let base = (!i * 4) + 1 in
    if base >= len then continue := false
    else begin
      let m = ref base in
      let mt = ref times.(base) in
      let ms = ref seqs.(base) in
      let last = if base + 3 < len - 1 then base + 3 else len - 1 in
      for c = base + 1 to last do
        let ct = times.(c) in
        if ct < !mt || (ct = !mt && seqs.(c) < !ms) then begin
          m := c;
          mt := ct;
          ms := seqs.(c)
        end
      done;
      if !mt < time || (!mt = time && !ms < seq) then begin
        times.(!i) <- !mt;
        seqs.(!i) <- !ms;
        ents.(!i) <- ents.(!m);
        i := !m
      end
      else continue := false
    end
  done;
  times.(!i) <- time;
  seqs.(!i) <- seq;
  ents.(!i) <- ent

(* Drop every cancelled entry and re-establish the heap invariant
   (Floyd heapify, over the 4-ary shape). Pop order is a pure function
   of the [(time, seq)] keys, so compaction never changes what a
   simulation observes. *)
let compact t =
  let kept = ref 0 in
  for i = 0 to t.len - 1 do
    if t.ents.(i).state <> state_cancelled then begin
      let k = !kept in
      if k <> i then begin
        t.times.(k) <- t.times.(i);
        t.seqs.(k) <- t.seqs.(i);
        t.ents.(k) <- t.ents.(i)
      end;
      incr kept
    end
  done;
  Array.fill t.ents !kept (t.len - !kept) t.filler;
  t.len <- !kept;
  if t.len > 1 then
    for i = (t.len - 2) / 4 downto 0 do
      sift_down_from t i t.times.(i) t.seqs.(i) t.ents.(i)
    done;
  maybe_shrink t

(* Cancel-heavy workloads (timeouts that almost always get cancelled,
   long pause/resume churn) would otherwise grow the arrays without
   bound: cancelled entries are only reclaimed when they reach the top.
   Once more than half of the stored entries are dead, sweep them
   eagerly. *)
let maybe_compact t =
  if t.len >= 64 && t.len - t.live > t.len / 2 then compact t

let push t ~time payload =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let entry = { payload; state = state_live } in
  ensure_capacity t;
  let times = t.times and seqs = t.seqs and ents = t.ents in
  let i = ref t.len in
  t.len <- t.len + 1;
  t.live <- t.live + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let p = (!i - 1) / 4 in
    let pt = times.(p) in
    if time < pt || (time = pt && seq < seqs.(p)) then begin
      times.(!i) <- pt;
      seqs.(!i) <- seqs.(p);
      ents.(!i) <- ents.(p);
      i := p
    end
    else continue := false
  done;
  times.(!i) <- time;
  seqs.(!i) <- seq;
  ents.(!i) <- entry;
  entry

(* Remove the root whatever its state and hand it back; the caller
   decides whether it was a live pop or a lazy-cancel discard. *)
let drop_top t =
  let e = t.ents.(0) in
  let n = t.len - 1 in
  t.len <- n;
  if n > 0 then begin
    let lt = t.times.(n) and ls = t.seqs.(n) and le = t.ents.(n) in
    t.ents.(n) <- t.filler;
    sift_down_from t 0 lt ls le
  end
  else t.ents.(0) <- t.filler;
  maybe_shrink t;
  e

let rec pop t =
  if t.len = 0 then None
  else begin
    let time = t.times.(0) in
    let e = drop_top t in
    if e.state = state_cancelled then pop t
    else begin
      e.state <- state_departed;
      t.live <- t.live - 1;
      Some (time, e.payload)
    end
  end

let rec pop_payload t =
  if t.len = 0 then invalid_arg "Heap.pop_payload: empty heap";
  let e = drop_top t in
  if e.state = state_cancelled then pop_payload t
  else begin
    e.state <- state_departed;
    t.live <- t.live - 1;
    e.payload
  end

let rec next_time t =
  if t.len = 0 then invalid_arg "Heap.next_time: no live entries";
  if t.ents.(0).state = state_cancelled then begin
    ignore (drop_top t);
    next_time t
  end
  else t.times.(0)

(* Non-destructive snapshot of the live entries in pop order. The
   order is the same (time, seq) key [pop] uses, so re-pushing the
   returned pairs into a fresh heap — in array order, with fresh
   sequence numbers — reproduces the exact pop order of this heap.
   That is the contract checkpoint/restore relies on. *)
let entries t =
  let out = ref [] in
  for i = 0 to t.len - 1 do
    let e = t.ents.(i) in
    if e.state = state_live then
      out := (t.times.(i), t.seqs.(i), e.payload) :: !out
  done;
  let arr = Array.of_list !out in
  Array.sort
    (fun (t1, s1, _) (t2, s2, _) ->
      match Float.compare t1 t2 with 0 -> Int.compare s1 s2 | c -> c)
    arr;
  Array.map (fun (time, _, payload) -> (time, payload)) arr

let cancel t entry =
  if entry.state = state_live then begin
    entry.state <- state_cancelled;
    t.live <- t.live - 1;
    maybe_compact t
  end

let cancelled entry = entry.state = state_cancelled

let drain t =
  for i = 0 to t.len - 1 do
    let e = t.ents.(i) in
    if e.state = state_live then e.state <- state_departed;
    t.ents.(i) <- t.filler
  done;
  t.len <- 0;
  t.live <- 0
