(** Phase spans: per-domain monotonic timers accumulating {e exclusive}
    time per named phase, so that summing all phases never double-counts
    nested spans (a solver query timed inside an execute span contributes
    to "solver", not to both). *)

type phase
(** A named phase backed by two registry metrics:
    ["phase.<name>_s"] (exclusive seconds, {!Metrics.fcounter}) and
    ["phase.<name>_count"] (closed spans, {!Metrics.counter}). *)

val phase : ?reg:Metrics.t -> string -> phase
(** Register (idempotently) the phase's metrics in [reg] (default
    {!Metrics.default}). *)

val timed :
  ?on_elapsed:(start:float -> float -> unit) -> phase -> (unit -> 'a) -> 'a
(** [timed ph f] runs [f], attributing its wall time minus any nested
    spans to [ph].  Exception-safe: the span closes when [f] raises.
    [on_elapsed] receives the span's start and its {e inclusive} elapsed
    time (nested spans included) — used by the solver to feed its
    per-query statistics and trace event from the same clock readings. *)

val now : unit -> float
(** The per-domain monotonized clock the spans use. *)
