(* Tests for the lib/obs telemetry subsystem: domain-sharded registry
   exactness, histogram bucket placement, span self-time accounting, the
   JSONL codec, and the end-to-end guarantee that registry totals for a
   parallel exploration match the serial run exactly. *)

module Metrics = S2e_obs.Metrics
module Span = S2e_obs.Span
module Jsonl = S2e_obs.Jsonl
open S2e_cc
open S2e_core

(* --- registry ------------------------------------------------------ *)

let test_counter_merge_across_domains () =
  let reg = Metrics.create () in
  let c = Metrics.counter ~reg "test.hits" in
  let per_domain = 100_000 in
  let domains =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to per_domain do
              Metrics.incr c
            done))
  in
  List.iter Domain.join domains;
  let snap = Metrics.snapshot ~reg () in
  Alcotest.(check int)
    "4 x 100k increments merge exactly" (4 * per_domain)
    (Metrics.get_int snap "test.hits");
  (* Shards persist after their writer domain dies: one shard per spawned
     domain, each holding exactly its own share. *)
  let shards = Metrics.shard_snapshots ~reg () in
  let nonzero =
    List.filter (fun (_, s) -> Metrics.get_int s "test.hits" > 0) shards
  in
  Alcotest.(check int) "one shard per writer domain" 4 (List.length nonzero);
  List.iter
    (fun (_, s) ->
      Alcotest.(check int) "per-shard share" per_domain
        (Metrics.get_int s "test.hits"))
    nonzero

let test_snapshot_under_concurrent_increments () =
  let reg = Metrics.create () in
  let c = Metrics.counter ~reg "test.live" in
  let per_domain = 50_000 in
  let writers =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to per_domain do
              Metrics.incr c
            done))
  in
  (* Snapshots race the writers: they may be stale but never tear (a cell
     is a single word) and never crash on mid-registration shards. *)
  for _ = 1 to 200 do
    let v = Metrics.get_int (Metrics.snapshot ~reg ()) "test.live" in
    Alcotest.(check bool) "snapshot within bounds" true
      (v >= 0 && v <= 4 * per_domain)
  done;
  List.iter Domain.join writers;
  Alcotest.(check int) "post-join snapshot exact" (4 * per_domain)
    (Metrics.get_int (Metrics.snapshot ~reg ()) "test.live")

let test_gauge_merge_modes () =
  let reg = Metrics.create () in
  let gsum = Metrics.gauge ~reg ~merge:Metrics.Sum "test.live_states" in
  let gmax = Metrics.gauge ~reg ~merge:Metrics.Max "test.watermark" in
  Metrics.set gsum 3;
  Metrics.set gsum 2;
  (* Sum: last value per shard. *)
  Metrics.set gmax 7;
  Metrics.set gmax 4;
  (* Max: running max per shard. *)
  let d =
    Domain.spawn (fun () ->
        Metrics.set gsum 5;
        Metrics.set gmax 6)
  in
  Domain.join d;
  let snap = Metrics.snapshot ~reg () in
  Alcotest.(check int) "Sum gauge adds shard last-values" 7
    (Metrics.get_int snap "test.live_states");
  Alcotest.(check int) "Max gauge keeps shard maxima" 7
    (Metrics.get_int snap "test.watermark")

let test_registration_idempotent () =
  let reg = Metrics.create () in
  let a = Metrics.counter ~reg "test.same" in
  let b = Metrics.counter ~reg "test.same" in
  Metrics.incr a;
  Metrics.add b 2;
  Alcotest.(check int) "same name, same cells" 3
    (Metrics.get_int (Metrics.snapshot ~reg ()) "test.same");
  Alcotest.check_raises "kind mismatch rejected"
    (Invalid_argument "Metrics: \"test.same\" re-registered with a different kind")
    (fun () -> ignore (Metrics.fcounter ~reg "test.same"))

let test_histogram_buckets () =
  let reg = Metrics.create () in
  let h = Metrics.histogram ~reg ~bounds:[| 1.0; 2.0; 4.0 |] "test.lat" in
  List.iter (Metrics.observe h) [ 1.0; 1.5; 2.0; 4.0; 5.0 ];
  match Metrics.find (Metrics.snapshot ~reg ()) "test.lat" with
  | Some (Metrics.Hist { bounds; counts; sum }) ->
      Alcotest.(check int) "3 bounds" 3 (Array.length bounds);
      Alcotest.(check int) "3 + overflow buckets" 4 (Array.length counts);
      (* v <= bound places on-boundary observations in the lower bucket. *)
      Alcotest.(check (array int)) "bucket placement" [| 1; 2; 1; 1 |] counts;
      Alcotest.(check (float 1e-9)) "sum of observations" 13.5 sum
  | _ -> Alcotest.fail "histogram missing from snapshot"

let test_reset () =
  let reg = Metrics.create () in
  let c = Metrics.counter ~reg "test.r" in
  Metrics.add c 41;
  Metrics.reset ~reg ();
  Metrics.incr c;
  Alcotest.(check int) "reset zeroes, handle survives" 1
    (Metrics.get_int (Metrics.snapshot ~reg ()) "test.r")

(* --- spans --------------------------------------------------------- *)

let spin seconds =
  let t0 = Unix.gettimeofday () in
  while Unix.gettimeofday () -. t0 < seconds do
    ()
  done

let test_span_exclusive_time () =
  let reg = Metrics.create () in
  let outer = Span.phase ~reg "outer" in
  let inner = Span.phase ~reg "inner" in
  let inclusive = ref 0. in
  Span.timed outer
    ~on_elapsed:(fun dt -> inclusive := dt)
    (fun () ->
      spin 0.02;
      Span.timed inner (fun () -> spin 0.04);
      spin 0.01);
  let snap = Metrics.snapshot ~reg () in
  let outer_s = Metrics.get_float snap "phase.outer_s" in
  let inner_s = Metrics.get_float snap "phase.inner_s" in
  Alcotest.(check bool) "inner self covers its spin" true (inner_s >= 0.035);
  Alcotest.(check bool) "outer excludes nested inner time" true
    (outer_s < inner_s);
  (* Self times partition the inclusive wall time of the outer span. *)
  Alcotest.(check bool) "self times sum to inclusive" true
    (abs_float (outer_s +. inner_s -. !inclusive) < 0.005);
  Alcotest.(check int) "enter counts" 1
    (Metrics.get_int snap "phase.outer_count")

let test_span_exception_safe () =
  let reg = Metrics.create () in
  let ph = Span.phase ~reg "boom" in
  (try Span.timed ph (fun () -> spin 0.01; failwith "boom")
   with Failure _ -> ());
  let snap = Metrics.snapshot ~reg () in
  Alcotest.(check bool) "time recorded despite raise" true
    (Metrics.get_float snap "phase.boom_s" >= 0.008);
  (* The span stack unwound: a following span is not treated as nested. *)
  let ph2 = Span.phase ~reg "after" in
  Span.timed ph2 (fun () -> spin 0.01);
  Alcotest.(check bool) "next span unaffected" true
    (Metrics.get_float (Metrics.snapshot ~reg ()) "phase.after_s" >= 0.008)

(* --- JSONL codec --------------------------------------------------- *)

let test_jsonl_roundtrip () =
  let v =
    Jsonl.Obj
      [
        ("kind", Jsonl.Str "final");
        ("seq", Jsonl.Num 17.);
        ("frac", Jsonl.Num 0.5);
        (* an epoch-seconds timestamp keeps its sub-second digits and a
           large counter every digit: the structural check below is
           exact float equality *)
        ("ts", Jsonl.Num 1_760_000_000.123456);
        ("count", Jsonl.Num 1_234_567_891_234.);
        ("ok", Jsonl.Bool true);
        ("none", Jsonl.Null);
        ("esc", Jsonl.Str "a\"b\\c\nd");
        ("arr", Jsonl.Arr [ Jsonl.Num 1.; Jsonl.Num 2.5; Jsonl.Str "x" ]);
      ]
  in
  match Jsonl.parse (Jsonl.to_string v) with
  | Error e -> Alcotest.failf "roundtrip parse failed: %s" e
  | Ok v' ->
      Alcotest.(check (option (float 1e-9))) "num member" (Some 17.)
        (Jsonl.num_member "seq" v');
      Alcotest.(check (option string)) "escaped string" (Some "a\"b\\c\nd")
        (Jsonl.str_member "esc" v');
      Alcotest.(check bool) "structural equality" true (v = v')

let test_jsonl_rejects_garbage () =
  List.iter
    (fun s ->
      match Jsonl.parse s with
      | Ok _ -> Alcotest.failf "accepted %S" s
      | Error _ -> ())
    [ ""; "{"; "{\"a\":}"; "[1,]"; "{\"a\":1} trailing"; "nul" ]

(* --- end-to-end: registry totals vs worker count ------------------- *)

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

(* Drain the workload's full execution tree with [jobs] workers and return
   the default registry's merged totals. *)
let totals jobs =
  Metrics.reset ();
  ignore
    (Parallel.explore ~jobs ~make_engine
       ~boot:(fun engine -> Executor.boot engine ~entry:0x1000 ())
       ());
  let snap = Metrics.snapshot () in
  List.map
    (fun name -> (name, Metrics.get_int snap name))
    [
      (* The jobs-independent totals: pure functions of the explored path
         set.  (sat_queries / cache hits / tb_misses are NOT in this list:
         workers have private solver and TB caches, so cold caches shift
         work between the cached and uncached counters.) *)
      "engine.instructions";
      "engine.sym_instructions";
      "engine.forks";
      "engine.states_created";
      "engine.states_completed";
      "solver.queries";
    ]

let test_registry_totals_jobs_independent () =
  (* The deterministic-exploration guarantee, observed through the
     registry: a drained frontier yields identical counter totals at any
     worker count (sharding must lose or double-count nothing). *)
  let serial = totals 1 in
  let parallel = totals 4 in
  List.iter2
    (fun (name, a) (name', b) ->
      Alcotest.(check string) "same metric" name name';
      Alcotest.(check int) (name ^ " equal across jobs") a b)
    serial parallel;
  Alcotest.(check bool) "counted real work" true
    (List.assoc "engine.instructions" serial > 0
    && List.assoc "engine.forks" serial = 31)

let tests =
  [
    Alcotest.test_case "counter merge across domains" `Quick
      test_counter_merge_across_domains;
    Alcotest.test_case "snapshot under concurrent increments" `Quick
      test_snapshot_under_concurrent_increments;
    Alcotest.test_case "gauge Sum vs Max merge" `Quick test_gauge_merge_modes;
    Alcotest.test_case "registration idempotent" `Quick
      test_registration_idempotent;
    Alcotest.test_case "histogram bucket boundaries" `Quick
      test_histogram_buckets;
    Alcotest.test_case "reset" `Quick test_reset;
    Alcotest.test_case "span exclusive time" `Quick test_span_exclusive_time;
    Alcotest.test_case "span exception safety" `Quick test_span_exception_safe;
    Alcotest.test_case "jsonl roundtrip" `Quick test_jsonl_roundtrip;
    Alcotest.test_case "jsonl rejects garbage" `Quick test_jsonl_rejects_garbage;
    Alcotest.test_case "registry totals independent of jobs" `Quick
      test_registry_totals_jobs_independent;
  ]
