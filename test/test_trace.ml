(* Event-tracer tests: ring-overflow accounting, schedule-independence
   of the traced event multisets, the worker-chunk codec the distributed
   merge rides on, trace_event JSON validity, and the reporter's
   exception-safe final flush. *)

open S2e_cc
open S2e_core
module Obs = S2e_obs
module Trace = S2e_obs.Trace

(* Every test restores the tracer's global state (tracing off, default
   capacity, rings empty) even on failure: the registry is process-wide
   and later suites must not see leftovers. *)
let with_trace ?(capacity = 65536) f =
  Trace.set_capacity capacity;
  Trace.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Trace.set_enabled false;
      Trace.set_capacity 65536)
    f

(* --- ring overflow --- *)

let t_mark = Trace.intern "test.mark"

let test_ring_overflow () =
  with_trace ~capacity:8 (fun () ->
      for i = 0 to 19 do
        Trace.instant ~a:i t_mark
      done;
      let events, dropped = Trace.drain () in
      Alcotest.(check int) "ring keeps capacity events" 8 (List.length events);
      Alcotest.(check int) "dropped = overflowed count" 12 dropped;
      (* Newest survive: the payloads must be exactly 12..19. *)
      Alcotest.(check (list int))
        "newest events kept"
        [ 12; 13; 14; 15; 16; 17; 18; 19 ]
        (List.sort compare (List.map (fun e -> e.Trace.ev_b) events));
      (* A second drain hands out nothing and counts nothing dropped. *)
      let events2, dropped2 = Trace.drain () in
      Alcotest.(check int) "drain is consuming" 0 (List.length events2);
      Alcotest.(check int) "no double-counted drops" 0 dropped2)

let test_no_drop_under_capacity () =
  with_trace ~capacity:64 (fun () ->
      for i = 0 to 9 do
        Trace.instant ~a:i t_mark
      done;
      let events, dropped = Trace.drain () in
      Alcotest.(check int) "all events kept" 10 (List.length events);
      Alcotest.(check int) "nothing dropped" 0 dropped)

(* --- schedule independence: jobs=1 vs jobs=4 --- *)

let runtime =
  {|
__start:
  li sp, 0xFFFF0
  jal main
  li r1, 0x900
  sw r0, 0(r1)
  halt
|}

let workload =
  {|
int main() {
  int x = __s2e_sym_int(1);
  int acc = 0;
  for (int i = 0; i < 5; i = i + 1) {
    if ((x >> i) & 1) acc = acc + (i * 3 + 1);
  }
  if (acc > 20) return 1;
  return 0;
} |}

let make_engine () =
  let linked = Cc.link ~runtime_asm:runtime [ ("prog", workload) ] in
  let engine = Executor.create () in
  Executor.load engine
    {
      Executor.l_origin = linked.image.origin;
      l_code = linked.image.code;
      l_modules =
        List.map
          (fun (m : Cc.module_range) ->
            (m.m_name, m.m_start, m.m_code_end, m.m_end))
          linked.modules;
    };
  Executor.set_unit engine [ "prog" ];
  engine

(* The schedule-independent view of a traced run: per-path multisets of
   masked events.  Path ids, timestamps, domains and cache hit/miss
   classification depend on scheduling, and prefix hash *values* mix
   global fresh-variable ids (run-specific), so prefixes are reduced to
   their grouping structure: per path, the multiset of node-count lists
   of queries sharing a prefix.  End statuses, the incomplete flag and
   the fork structure are kept verbatim. *)
let masked_per_path events =
  let per_path = Hashtbl.create 64 in
  let get path =
    match Hashtbl.find_opt per_path path with
    | Some r -> r
    | None ->
        let r = (ref 0, ref [], Hashtbl.create 8) in
        Hashtbl.replace per_path path r;
        r
  in
  List.iter
    (fun e ->
      (* Phase/Instant events must not create buckets: their path tag is
         just "whatever was current on the domain" (-1 on an idle
         worker), which is pure scheduling. *)
      match e.Trace.ev_code with
      | Trace.Path_start ->
          let starts, _, _ = get e.Trace.ev_path in
          incr starts
      | Trace.Path_end ->
          let _, ends, _ = get e.Trace.ev_path in
          ends := (e.ev_a, e.ev_b) :: !ends
      | Trace.Query ->
          let _, _, groups = get e.Trace.ev_path in
          Hashtbl.replace groups e.ev_a
            (e.ev_b
            :: Option.value ~default:[] (Hashtbl.find_opt groups e.ev_a))
      | Trace.Phase | Trace.Instant -> ())
    events;
  Hashtbl.fold
    (fun _ (starts, ends, groups) acc ->
      let qgroups =
        Hashtbl.fold
          (fun _ nodes acc -> List.sort compare nodes :: acc)
          groups []
        |> List.sort compare
      in
      (!starts, List.sort compare !ends, qgroups) :: acc)
    per_path []
  |> List.sort compare

(* Cross-path prefix structure, hash values masked: the multiset of
   reuse-group sizes over the whole run. *)
let prefix_group_sizes events =
  let groups = Hashtbl.create 64 in
  List.iter
    (fun e ->
      if e.Trace.ev_code = Trace.Query then
        Hashtbl.replace groups e.ev_a
          (1 + Option.value ~default:0 (Hashtbl.find_opt groups e.ev_a)))
    events;
  Hashtbl.fold (fun _ n acc -> n :: acc) groups [] |> List.sort compare

let traced_explore jobs =
  Trace.reset ();
  let r =
    Parallel.explore ~jobs ~make_engine
      ~boot:(fun engine -> Executor.boot engine ~entry:0x1000 ())
      ()
  in
  let events, dropped = Trace.drain () in
  Alcotest.(check int) "ring large enough for the run" 0 dropped;
  (r, events)

let test_jobs_invariant () =
  with_trace (fun () ->
      let r1, ev1 = traced_explore 1 in
      let r4, ev4 = traced_explore 4 in
      Alcotest.(check int) "serial run drains 32 paths" 32
        r1.Parallel.stats.Executor.states_completed;
      Alcotest.(check int) "same completions"
        r1.Parallel.stats.Executor.states_completed
        r4.Parallel.stats.Executor.states_completed;
      let m1 = masked_per_path ev1 and m4 = masked_per_path ev4 in
      Alcotest.(check int) "same path count in trace" (List.length m1)
        (List.length m4);
      Alcotest.(check bool) "identical per-path event multisets" true
        (m1 = m4);
      Alcotest.(check (list int))
        "identical cross-path prefix reuse structure"
        (prefix_group_sizes ev1) (prefix_group_sizes ev4))

let test_lifecycle_matches_stats () =
  with_trace (fun () ->
      let r, events = traced_explore 1 in
      let count code =
        List.length (List.filter (fun e -> e.Trace.ev_code = code) events)
      in
      Alcotest.(check int) "one path_start per created state"
        r.Parallel.stats.Executor.states_created
        (count Trace.Path_start);
      Alcotest.(check int) "one path_end per completed state"
        r.Parallel.stats.Executor.states_completed
        (count Trace.Path_end);
      Alcotest.(check int) "one query event per solver query"
        r.Parallel.solver_stats.S2e_solver.Solver.queries
        (count Trace.Query))

(* --- worker-chunk codec (the distributed merge transport) --- *)

let test_chunk_roundtrip () =
  with_trace (fun () ->
      Trace.reset ();
      let t_a = Trace.intern "test.chunk.a" in
      Trace.path_start ~ts:1.0 ~path:7 ~parent:3 ();
      Trace.query ~ts:1.5 ~dur:0.25 ~prefix:0x1234 ~nodes:9 ~result:0 ~cache:1
        ();
      Trace.instant ~ts:2.0 ~a:42 t_a;
      Trace.path_end ~ts:3.0 ~path:7 ~status:1 ~incomplete:false ();
      let events, _ = Trace.drain () in
      let chunk = Trace.encode_chunk events ~dropped:5 in
      let decoded, dropped = Trace.decode_chunk ~pid:99 ~offset:10.0 chunk in
      Alcotest.(check int) "dropped count travels" 5 dropped;
      Alcotest.(check int) "all events decoded" (List.length events)
        (List.length decoded);
      List.iter2
        (fun (a : Trace.event) (b : Trace.event) ->
          Alcotest.(check int) "pid stamped" 99 b.ev_pid;
          Alcotest.(check (float 1e-9)) "clock offset applied"
            (a.ev_ts +. 10.0) b.ev_ts;
          Alcotest.(check (float 1e-9)) "duration preserved" a.ev_dur b.ev_dur;
          Alcotest.(check bool) "code preserved" true (a.ev_code = b.ev_code);
          Alcotest.(check int) "path preserved" a.ev_path b.ev_path;
          (* Same process: the remapped name id must resolve identically. *)
          match b.ev_code with
          | Trace.Instant ->
              Alcotest.(check string) "name survives remap"
                (Trace.name_of a.ev_a) (Trace.name_of b.ev_a)
          | _ -> Alcotest.(check int) "payload preserved" a.ev_a b.ev_a)
        events decoded)

let test_merge_deterministic_and_complete () =
  with_trace (fun () ->
      Trace.reset ();
      Trace.instant ~ts:5.0 ~a:1 t_mark;
      Trace.instant ~ts:1.0 ~a:2 t_mark;
      let w1, _ = Trace.drain () in
      let c1 = Trace.encode_chunk w1 ~dropped:0 in
      Trace.instant ~ts:3.0 ~a:3 t_mark;
      let w2, _ = Trace.drain () in
      let c2 = Trace.encode_chunk w2 ~dropped:2 in
      let merge () =
        let e1, d1 = Trace.decode_chunk ~pid:1 ~offset:0.5 c1 in
        let e2, d2 = Trace.decode_chunk ~pid:2 ~offset:(-0.5) c2 in
        let all =
          List.sort
            (fun (a : Trace.event) b -> compare a.ev_ts b.ev_ts)
            (e1 @ e2)
        in
        (all, d1 + d2)
      in
      let m1, dropped = merge () in
      let m2, _ = merge () in
      Alcotest.(check bool) "merge is deterministic" true (m1 = m2);
      Alcotest.(check int) "every worker's events present" 3 (List.length m1);
      Alcotest.(check int) "drops accumulate" 2 dropped;
      Alcotest.(check (list int))
        "timeline ordered by normalized time"
        [ 2; 3; 1 ]
        (List.map (fun (e : Trace.event) -> e.ev_b) m1))

let test_chunk_rejects_garbage () =
  Alcotest.check_raises "truncated chunk rejected"
    (Failure "Trace.decode_chunk: truncated") (fun () ->
      ignore (Trace.decode_chunk "\x01\x02\x03"))

(* --- trace_event JSON export --- *)

let test_json_valid () =
  with_trace (fun () ->
      let _, events = traced_explore 1 in
      let json = Trace.to_json ~dropped:0 events in
      let s = Obs.Jsonl.to_string json in
      match Obs.Jsonl.parse s with
      | Error msg -> Alcotest.failf "export does not parse: %s" msg
      | Ok j ->
          let evs =
            Option.bind (Obs.Jsonl.member "traceEvents" j) Obs.Jsonl.to_arr
          in
          (match evs with
          | None -> Alcotest.fail "no traceEvents array"
          | Some l ->
              Alcotest.(check int) "every event exported"
                (List.length events) (List.length l);
              List.iter
                (fun ev ->
                  let has m = Obs.Jsonl.member m ev <> None in
                  Alcotest.(check bool) "name/ph/ts/pid/tid present" true
                    (has "name" && has "ph" && has "ts" && has "pid"
                   && has "tid");
                  match Obs.Jsonl.str_member "ph" ev with
                  | Some "X" ->
                      Alcotest.(check bool) "complete events carry dur" true
                        (has "dur")
                  | Some "i" -> ()
                  | ph ->
                      Alcotest.failf "unexpected phase %s"
                        (Option.value ~default:"<none>" ph))
                l);
          (* Query prefixes export as hex strings (63-bit hashes would
             round in a JSON double). *)
          let some_query =
            List.exists
              (fun ev ->
                Obs.Jsonl.str_member "name" ev = Some "solver_query"
                &&
                match
                  Option.bind (Obs.Jsonl.member "args" ev) (fun a ->
                      Obs.Jsonl.str_member "prefix" a)
                with
                | Some p -> String.length p > 2 && String.sub p 0 2 = "0x"
                | None -> false)
              (Option.value ~default:[]
                 (Option.bind (Obs.Jsonl.member "traceEvents" j)
                    Obs.Jsonl.to_arr))
          in
          Alcotest.(check bool) "query prefix is a hex string" true some_query)

(* The [s2e_cli trace] report leads with realized reuse: its first
   solver line counts the SAT-core queries (query-cache misses) and those
   answered on a live incremental instance, and both counts must equal
   the trace's own Query events. *)
let test_report_leads_with_reuse () =
  with_trace (fun () ->
      let _, events = traced_explore 1 in
      let sat_q, sat_inc =
        List.fold_left
          (fun (q, i) e ->
            if e.Trace.ev_code = Trace.Query && e.ev_c mod 4 = 0 then
              (q + 1, if e.ev_c / 16 > 0 then i + 1 else i)
            else (q, i))
          (0, 0) events
      in
      Alcotest.(check bool) "the run reached the SAT core" true (sat_q > 0);
      let file = Filename.temp_file "s2e_trace" ".json" in
      let out = Filename.temp_file "s2e_trace" ".txt" in
      Fun.protect
        ~finally:(fun () ->
          Sys.remove file;
          Sys.remove out)
        (fun () ->
          Out_channel.with_open_bin file (fun oc ->
              output_string oc
                (Obs.Jsonl.to_string (Trace.to_json ~dropped:0 events)));
          let cli =
            Filename.concat
              (Filename.dirname Sys.executable_name)
              "../bin/s2e_cli.exe"
          in
          let rc =
            Sys.command
              (Printf.sprintf "%s trace %s > %s" (Filename.quote cli)
                 (Filename.quote file) (Filename.quote out))
          in
          Alcotest.(check int) "trace exits 0" 0 rc;
          let lines =
            In_channel.with_open_bin out In_channel.input_all
            |> String.split_on_char '\n'
          in
          let index prefix =
            let rec go i = function
              | [] -> Alcotest.failf "no %S line" prefix
              | l :: rest ->
                  if String.starts_with ~prefix l then (i, l)
                  else go (i + 1) rest
            in
            go 0 lines
          in
          let reuse_at, reuse = index "SAT-core reuse:" in
          let prefixes_at, _ = index "constraint prefixes:" in
          Alcotest.(check bool) "reuse line comes before the prefix line" true
            (reuse_at < prefixes_at);
          let n, m =
            Scanf.sscanf reuse
              "SAT-core reuse: %d of %d SAT-core queries answered on a live \
               instance"
              (fun n m -> (n, m))
          in
          Alcotest.(check int) "SAT-core queries" sat_q m;
          Alcotest.(check int) "answered on a live instance" sat_inc n))

(* Exported timestamps are integer microseconds rebased to the first
   event: absolute epoch microseconds printed with nine significant
   digits used to flatten a whole run onto one [ts]. *)
let test_json_timestamps () =
  with_trace (fun () ->
      let _, events = traced_explore 1 in
      let s = Obs.Jsonl.to_string (Trace.to_json ~dropped:0 events) in
      let evs =
        match Obs.Jsonl.parse s with
        | Error msg -> Alcotest.failf "export does not parse: %s" msg
        | Ok j ->
            Option.value ~default:[]
              (Option.bind (Obs.Jsonl.member "traceEvents" j) Obs.Jsonl.to_arr)
      in
      let num m ev =
        match Obs.Jsonl.num_member m ev with
        | Some v -> v
        | None -> Alcotest.failf "event without %s" m
      in
      let ts = List.map (num "ts") evs in
      Alcotest.(check bool) "ts are integers" true (List.for_all Float.is_integer ts);
      Alcotest.(check (float 0.)) "first event at 0" 0.
        (List.fold_left Float.min infinity ts);
      Alcotest.(check bool) "ts not constant" true
        (List.exists (fun t -> t <> List.hd ts) ts);
      let last = Hashtbl.create 8 in
      List.iter
        (fun ev ->
          let tid = num "tid" ev and t = num "ts" ev in
          (match Hashtbl.find_opt last tid with
          | Some prev when t < prev ->
              Alcotest.failf "ts went backwards on tid %.0f: %.0f after %.0f"
                tid t prev
          | _ -> ());
          Hashtbl.replace last tid t)
        evs)

(* --- reporter: final snapshot must flush on exceptions too --- *)

let test_reporter_flushes_on_exception () =
  let path = Filename.temp_file "s2e_reporter" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let oc = open_out path in
      (try
         Fun.protect
           ~finally:(fun () -> close_out_noerr oc)
           (fun () ->
             Obs.Reporter.with_reporter ~interval:60.0 oc (fun () ->
                 failwith "boom"))
       with Failure _ -> ());
      let ic = open_in path in
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> close_in ic);
      let has_final =
        List.exists
          (fun line ->
            match Obs.Jsonl.parse line with
            | Ok j -> Obs.Jsonl.str_member "kind" j = Some "final"
            | Error _ -> false)
          !lines
      in
      Alcotest.(check bool) "final snapshot written despite exception" true
        has_final)

let tests =
  [
    Alcotest.test_case "ring overflow keeps newest, counts dropped" `Quick
      test_ring_overflow;
    Alcotest.test_case "no drops under capacity" `Quick
      test_no_drop_under_capacity;
    Alcotest.test_case "jobs=1 and jobs=4 trace the same events" `Quick
      test_jobs_invariant;
    Alcotest.test_case "lifecycle events match engine stats" `Quick
      test_lifecycle_matches_stats;
    Alcotest.test_case "worker chunk codec round-trips" `Quick
      test_chunk_roundtrip;
    Alcotest.test_case "merge is deterministic and worker-complete" `Quick
      test_merge_deterministic_and_complete;
    Alcotest.test_case "malformed chunk rejected" `Quick
      test_chunk_rejects_garbage;
    Alcotest.test_case "trace_event export is valid JSON" `Quick
      test_json_valid;
    Alcotest.test_case "trace_event ts: integer, rebased, monotone per tid"
      `Quick test_json_timestamps;
    Alcotest.test_case "trace report leads with realized reuse" `Quick
      test_report_leads_with_reuse;
    Alcotest.test_case "reporter flushes final line on exception" `Quick
      test_reporter_flushes_on_exception;
  ]
