(** Dynamic binary translator.

    Guest machine code is translated on demand into {e translation blocks}
    (TBs): straight-line sequences of decoded instructions ending at the
    first control transfer.  Blocks are cached so each instruction is
    decoded once but may execute millions of times — this is what makes the
    paper's onInstrTranslation / onInstrExecution event split cheap
    (section 4.2).  Writes into already-translated code invalidate the
    affected blocks, which is how self-modifying guests stay correct. *)

open S2e_isa
module Obs = S2e_obs

(* TB-cache telemetry: hit/miss rates are the translation-cost half of
   the paper's overhead story (section 6.2), and invalidations count
   self-modifying-code churn. *)
let m_tb_hits = Obs.Metrics.counter "dbt.tb_hits"
let m_tb_misses = Obs.Metrics.counter "dbt.tb_misses"
let m_tb_invalidations = Obs.Metrics.counter "dbt.tb_invalidations"
let translate_phase = Obs.Span.phase "translate"
let t_invalidate = Obs.Trace.intern "tb.invalidate"

type tb = {
  tb_start : int;
  insns : (int * Insn.t) array; (* (address, instruction) *)
  mutable exec_count : int;
}

type t = {
  cache : (int, tb) Hashtbl.t;
  (* Set of instruction addresses plugins marked during translation. *)
  marks : (int, unit) Hashtbl.t;
  (* Forced block boundaries: translation never extends past a cut
     address, so a cut address always starts its own block.  Merge
     points are cut so states stop there between blocks. *)
  cuts : (int, unit) Hashtbl.t;
  mutable translations : int;
  mutable max_block : int;
  (* Invalidation index: [code.(g)] counts the cached blocks overlapping
     granule [g] (bytes [g lsl granule_bits] onwards) of the non-negative
     address space, grown on demand up to [max_granules].  A store into a
     granule at zero cannot hit translated code, which answers almost
     every guest store in O(1); the others scan the cache.  Blocks
     reaching past the last granule are counted in [far] instead, and
     while any is cached every store takes the scan. *)
  mutable code : int array;
  mutable far : int;
}

let granule_bits = 6
let max_granules = 1 lsl 16

let create ?(max_block = 32) () =
  {
    cache = Hashtbl.create 512;
    marks = Hashtbl.create 64;
    cuts = Hashtbl.create 64;
    translations = 0;
    max_block;
    code = [||];
    far = 0;
  }

let block_stop tb = tb.tb_start + (Array.length tb.insns * Insn.insn_size)

(* Add [delta] (a block entering or leaving the cache) to the count of
   every granule the block's non-negative part overlaps. *)
let count_code t tb delta =
  let lo = max 0 tb.tb_start and hi = block_stop tb in
  if hi > lo then begin
    let g0 = lo lsr granule_bits and g1 = (hi - 1) lsr granule_bits in
    if g1 >= max_granules then t.far <- t.far + delta
    else begin
      if g1 >= Array.length t.code then begin
        let grown = Array.make (min max_granules (max (g1 + 1) (2 * Array.length t.code))) 0 in
        Array.blit t.code 0 grown 0 (Array.length t.code);
        t.code <- grown
      end;
      for g = g0 to g1 do
        t.code.(g) <- t.code.(g) + delta
      done
    end
  end

(** Mark [addr] for execution notification (called by plugins from an
    onInstrTranslation handler). *)
let mark t addr = Hashtbl.replace t.marks addr ()
let unmark t addr = Hashtbl.remove t.marks addr
let is_marked t addr = Hashtbl.mem t.marks addr

(** Translate the block starting at [pc].  [fetch] reads one guest byte;
    [on_translate] is invoked once per freshly decoded instruction. *)
let translate t ~fetch ~on_translate pc =
  match Hashtbl.find_opt t.cache pc with
  | Some tb ->
      Obs.Metrics.incr m_tb_hits;
      tb
  | None ->
      t.translations <- t.translations + 1;
      Obs.Metrics.incr m_tb_misses;
      Obs.Span.timed translate_phase (fun () ->
          let rec go addr acc n =
            let insn = Insn.decode_with ~get:fetch addr in
            on_translate addr insn;
            let acc = (addr, insn) :: acc in
            if
              Insn.is_block_terminator insn
              || n + 1 >= t.max_block
              || Hashtbl.mem t.cuts (addr + Insn.insn_size)
            then List.rev acc
            else go (addr + Insn.insn_size) acc (n + 1)
          in
          let insns = Array.of_list (go pc [] 0) in
          let tb = { tb_start = pc; insns; exec_count = 0 } in
          Hashtbl.replace t.cache pc tb;
          count_code t tb 1;
          tb)

(* Whether some cached block may cover [addr]: exact to the granule.
   Negative addresses are not counted and always take the full scan. *)
let may_hold_code t addr =
  addr < 0 || t.far > 0
  ||
  let g = addr lsr granule_bits in
  g < Array.length t.code && t.code.(g) > 0

(** Invalidate any block covering [addr] (a guest write hit translated
    code). *)
let invalidate t addr =
  if may_hold_code t addr then begin
    (* Coarse but correct: drop every cached block overlapping the write. *)
    let victims =
      Hashtbl.fold
        (fun start tb acc ->
          if addr >= start && addr < block_stop tb then tb :: acc else acc)
        t.cache []
    in
    if victims <> [] then begin
      Obs.Metrics.add m_tb_invalidations (List.length victims);
      if Obs.Trace.enabled () then
        Obs.Trace.instant ~a:addr ~b:(List.length victims) t_invalidate;
      List.iter
        (fun tb ->
          Hashtbl.remove t.cache tb.tb_start;
          count_code t tb (-1))
        victims
    end
  end

(** Drop every cached block.  The cumulative translation count is kept
    (it is monotone by contract); only the cache and its code index are
    cleared.  Used by the differential oracle, which reuses one
    translator across runs that place different code at the same pc. *)
let flush t =
  Hashtbl.reset t.cache;
  t.code <- [||];
  t.far <- 0

(** Force a block boundary before [addr]: no block extends past it, so
    [addr] always starts its own block and execution pauses there between
    blocks.  Any cached block already spanning [addr] is dropped. *)
let cut t addr =
  if not (Hashtbl.mem t.cuts addr) then begin
    Hashtbl.replace t.cuts addr ();
    invalidate t addr
  end

let is_cached t pc = Hashtbl.mem t.cache pc

let stats t = (t.translations, Hashtbl.length t.cache)
