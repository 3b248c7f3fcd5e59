(** Phase spans: monotonic-clock timers that attribute wall time to named
    execution phases (translate, execute, solver, steal, ...).

    A phase accumulates {e exclusive} (self) time: each domain keeps a
    stack of open spans in domain-local storage, and when a span closes,
    the time its nested children recorded is subtracted before the
    remainder is added to the phase's {!Metrics.fcounter}.  Summing every
    phase therefore never double-counts nested work — the per-run time
    breakdown adds up to the total spanned time, which is what lets the
    reporter print Table-5-style percentages that sum to ~100%.

    The clock is [Unix.gettimeofday] monotonized per domain (a reading
    older than the previous one is clamped), so spans never go negative
    across NTP steps. *)

type phase = {
  p_self : Metrics.fcounter; (* exclusive seconds: "phase.<name>_s" *)
  p_count : Metrics.counter; (* span closures: "phase.<name>_count" *)
  p_trace : int; (* interned name for {!Trace.span} events *)
}

let phase ?reg name =
  {
    p_self = Metrics.fcounter ?reg (Printf.sprintf "phase.%s_s" name);
    p_count = Metrics.counter ?reg (Printf.sprintf "phase.%s_count" name);
    p_trace = Trace.intern name;
  }

(* Per-domain clock clamp and span stack. *)
type frame = { mutable child : float }

type dls = { mutable last : float; mutable stack : frame list }

let dls_key = Domain.DLS.new_key (fun () -> { last = 0.; stack = [] })

let now () =
  let d = Domain.DLS.get dls_key in
  let t = Unix.gettimeofday () in
  if t < d.last then d.last else begin d.last <- t; t end

let timed ?on_elapsed ph f =
  let d = Domain.DLS.get dls_key in
  let fr = { child = 0. } in
  let t0 = now () in
  d.stack <- fr :: d.stack;
  let finish () =
    let dt = now () -. t0 in
    (match d.stack with
    | _ :: rest -> d.stack <- rest
    | [] -> () (* unbalanced close: only possible through effects misuse *));
    Metrics.fadd ph.p_self (Float.max 0. (dt -. fr.child));
    Metrics.incr ph.p_count;
    if Trace.enabled () then Trace.span ~name:ph.p_trace ~ts:t0 ~dur:dt;
    (match d.stack with
    | parent :: _ -> parent.child <- parent.child +. dt
    | [] -> ());
    match on_elapsed with Some g -> g ~start:t0 dt | None -> ()
  in
  match f () with
  | r ->
      finish ();
      r
  | exception e ->
      finish ();
      raise e
