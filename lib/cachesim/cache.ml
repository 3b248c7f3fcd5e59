(** Set-associative cache with LRU replacement.

    The PerformanceProfile plugin simulates a configurable hierarchy of
    these for every memory access on every path — the paper's PROFS tool
    claims a superset of Valgrind's cachegrind functionality (arbitrary
    levels, sizes, associativities and line sizes).

    Every forked path gets its own copy of the cache, so the state is
    copy-on-write: the lines live in fixed-size chunks of whole sets, a
    clone copies only the table of chunk pointers, and the first write to
    a chunk still shared with another copy duplicates that chunk alone. *)

type config = {
  size : int;          (* total bytes *)
  line_size : int;     (* bytes per line, power of two *)
  associativity : int;
  name : string;
}

type t = {
  config : config;
  num_sets : int;
  chunk_shift : int; (* log2 of the sets per chunk *)
  (* chunks.(set lsr chunk_shift) holds the set's ways: way w of the
     set's slot i in its chunk has its tag (-1 = invalid) at
     2 * (i * associativity + w) and its LRU age right after, so a hit
     touches one small array. *)
  chunks : int array array;
  (* shared.[c] <> '\000': chunks.(c) may be referenced by another copy
     and must be duplicated before it is written. *)
  shared : Bytes.t;
  mutable clock : int;
  mutable accesses : int;
  mutable misses : int;
}

(* Up to 64 ways per chunk, rounded down to a power of two of whole sets. *)
let chunk_shift assoc =
  let rec go k = if (2 lsl k) * assoc <= 64 then go (k + 1) else k in
  go 0

(* All chunks start out pointing at one shared invalid chunk. *)
let blank t =
  let ways = (1 lsl t.chunk_shift) * t.config.associativity in
  let empty = Array.init (2 * ways) (fun i -> if i land 1 = 0 then -1 else 0) in
  Array.fill t.chunks 0 (Array.length t.chunks) empty;
  Bytes.fill t.shared 0 (Bytes.length t.shared) '\001'

let create config =
  let num_sets = config.size / (config.line_size * config.associativity) in
  if num_sets <= 0 then invalid_arg "cache too small for its associativity";
  let chunk_shift = chunk_shift config.associativity in
  let nchunks = ((num_sets - 1) lsr chunk_shift) + 1 in
  let t =
    {
      config;
      num_sets;
      chunk_shift;
      chunks = Array.make nchunks [||];
      shared = Bytes.make nchunks '\001';
      clock = 0;
      accesses = 0;
      misses = 0;
    }
  in
  blank t;
  t

(** Access [addr]; returns [true] on hit. *)
let access t addr =
  let line = addr / t.config.line_size in
  let set = line mod t.num_sets in
  let tag = line / t.num_sets in
  let assoc = t.config.associativity in
  let c = set lsr t.chunk_shift in
  let chunk =
    if Bytes.unsafe_get t.shared c = '\000' then t.chunks.(c)
    else begin
      let own = Array.copy t.chunks.(c) in
      t.chunks.(c) <- own;
      Bytes.unsafe_set t.shared c '\000';
      own
    end
  in
  let base = 2 * (set land ((1 lsl t.chunk_shift) - 1)) * assoc in
  let stop = base + (2 * assoc) in
  t.clock <- t.clock + 1;
  t.accesses <- t.accesses + 1;
  let i = ref base in
  while !i < stop && chunk.(!i) <> tag do
    i := !i + 2
  done;
  if !i < stop then begin
    chunk.(!i + 1) <- t.clock;
    true
  end
  else begin
    t.misses <- t.misses + 1;
    (* Evict the LRU way: the oldest age, the lowest way among ties. *)
    let victim = ref base in
    let j = ref (base + 2) in
    while !j < stop do
      if chunk.(!j + 1) < chunk.(!victim + 1) then victim := !j;
      j := !j + 2
    done;
    chunk.(!victim) <- tag;
    chunk.(!victim + 1) <- t.clock;
    false
  end

let reset t =
  blank t;
  t.clock <- 0;
  t.accesses <- 0;
  t.misses <- 0

let clone t =
  Bytes.fill t.shared 0 (Bytes.length t.shared) '\001';
  {
    t with
    chunks = Array.copy t.chunks;
    shared = Bytes.make (Bytes.length t.shared) '\001';
  }

let stats t = (t.accesses, t.misses)
