(** Low-overhead event tracer: per-domain sharded ring buffers of typed,
    timestamped events, off by default.

    Each domain owns a private bounded ring (no locks or atomics on the
    emit path); when the ring wraps, the oldest events are overwritten and
    the drop is counted exactly.  Tracing is gated on a single global
    flag: with tracing off every emit helper is one load and one branch.

    Events carry a monotonic per-domain timestamp, the emitting domain's
    shard id, and a process lane ([ev_pid]) that is [0] for locally
    emitted events and stamped by {!decode_chunk} when a distributed
    worker ships its buffer to the coordinator.  The binary chunk codec
    carries the string-interning table with each chunk, so name ids from
    another process are re-interned on arrival. *)

type code =
  | Path_start  (** [ev_path] born; [ev_a] = parent path id (-1 for root) *)
  | Path_end  (** [ev_path] terminated; [ev_a] = status code, [ev_b] = 1 if incomplete *)
  | Query
      (** solver query on [ev_path]: [ev_a] = constraint-prefix hash,
          [ev_b] = expression node count,
          [ev_c] = inc*16 + result*4 + cache class
          (inc: 0 fresh solve / 1 partial prefix hit / 2 full prefix hit;
           result: 0 sat / 1 unsat / 2 unknown;
           cache: 0 miss / 1 model-cache hit / 2 unsat-cache hit) *)
  | Phase  (** completed phase span; [ev_a] = interned phase name *)
  | Instant
      (** point event; [ev_a] = interned name, [ev_b]/[ev_c] = arguments *)

type event = {
  ev_ts : float;  (** start time, seconds (monotonized wall clock) *)
  ev_dur : float;  (** duration in seconds; [0.] for instants *)
  ev_pid : int;  (** process lane: 0 local, worker pid after dist merge *)
  ev_dom : int;  (** emitting domain's shard id within its process *)
  ev_code : code;
  ev_path : int;  (** path (state) id, [-1] when not path-scoped *)
  ev_a : int;
  ev_b : int;
  ev_c : int;
}

val set_enabled : bool -> unit
(** Turn tracing on or off.  Off (the default) reduces every emit helper
    to a flag check. *)

val enabled : unit -> bool

val set_capacity : int -> unit
(** Set the per-domain ring capacity (default 65536 events) and clear all
    shards.  Call while no other domain is emitting. *)

val reset : unit -> unit
(** Drop all buffered events and dropped-counts.  Call while no other
    domain is emitting (e.g. before an exploration starts). *)

val now : unit -> float
(** The tracer's clock: [Unix.gettimeofday] monotonized per domain. *)

val intern : string -> int
(** Intern a name for [Phase]/[Instant] events.  Safe from any domain. *)

val name_of : int -> string
(** Reverse of {!intern}; ["?<id>"] for ids never interned locally. *)

val set_current_path : int -> unit
(** Record the path id the calling domain is executing; subsequent
    {!query} events are attributed to it.  [-1] clears it. *)

val current_path : unit -> int

(** {1 Emit helpers} — no-ops while tracing is disabled. *)

val path_start : ?ts:float -> path:int -> parent:int -> unit -> unit
val path_end : ?ts:float -> path:int -> status:int -> incomplete:bool -> unit -> unit

val query :
  ?ts:float ->
  ?inc:int ->
  dur:float ->
  prefix:int ->
  nodes:int ->
  result:int ->
  cache:int ->
  unit ->
  unit
(** [ts] is the query's {e start}; defaults to [now () -. dur].  [inc] is
    the realized incremental-reuse class (0 fresh / 1 partial / 2 full
    prefix hit, default 0). *)

val span : name:int -> ts:float -> dur:float -> unit
(** A completed phase span ([name] from {!intern}); [ts] is the start. *)

val instant : ?ts:float -> ?path:int -> ?a:int -> ?b:int -> int -> unit
(** [instant name] records a point event ([name] from {!intern}). *)

(** {1 Draining and the chunk codec} *)

val drain : unit -> event list * int
(** Remove and return all buffered events, sorted by timestamp, plus the
    number of events dropped (ring overwrites) since the last drain.
    Exact once emitting domains have been joined. *)

val encode_chunk : event list -> dropped:int -> string
(** Serialize a drained batch, including the local interning table. *)

val decode_chunk : ?pid:int -> ?offset:float -> string -> event list * int
(** Decode a chunk from another process: stamps [ev_pid <- pid], shifts
    timestamps by [offset] (coordinator clock minus worker clock), and
    re-interns remote name ids into the local table.
    @raise Failure on a malformed chunk. *)

(** {1 Export} *)

val to_json : ?dropped:int -> event list -> Jsonl.t
(** Chrome/Perfetto [trace_event] JSON: an object with a [traceEvents]
    array ([ts] and [dur] in integer microseconds, [ts] counted from the
    earliest event; [ph]="X" for spans and queries,
    [ph]="i" for instants and path lifecycle) plus an [s2e] metadata
    object.  Constraint-prefix hashes are exported as hex strings —
    they do not fit a JSON double. *)

val write_json : out_channel -> ?dropped:int -> event list -> unit
(** {!to_json} rendered compactly to [oc], newline-terminated. *)
