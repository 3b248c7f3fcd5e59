(* Paper-workload benchmark, measuring side.

   usage: bench.exe WORKLOAD VARIANT TRACED BUDGET TRACE_CAPACITY

   Runs one workload to its deterministic budget in this fresh process
   (the solver's default context, the intern tables and the metrics
   registry are process-global, so workloads never share a process) and
   prints one JSON object: times taken around the layers' public entry
   points, the layers' own counters, and the analysis outputs that
   run.py checks against the values recorded for VARIANT.

   Workloads:
   - ddt_pcnet: DDT+ on pcnet (LC annotations, Memchecker, Race_detector,
     Bugcheck, Path_killer) to BUDGET instructions, then one test case per
     completed path.
   - profs_urlparse: PROFS on urlparse (LC, Perf_profile with cachesim,
     one input solve per completed path) to BUDGET instructions.
   - c111_dist: the c111 exerciser under LC drained by 2 fork-server
     worker processes; BUDGET is unused.
   - c111_serial: the same drain on one engine in this process, used only
     to record the statuses the distributed drain must reproduce. *)

open S2e_core
open S2e_plugins
module Expr = S2e_expr.Expr
module Solver = S2e_solver.Solver
module Guest = S2e_guest.Guest
module Obs = S2e_obs
module Coordinator = S2e_dist.Coordinator
module Ddt = S2e_tools.Ddt
module Profs = S2e_tools.Profs

let now = Unix.gettimeofday

let timed f =
  let t = now () in
  let r = f () in
  (r, now () -. t)

(* A wall-clock safety net, never a budget: a run it stops is reported
   as failed, not as a result. *)
let safety_net_s = 150.

(* ------------------------------------------------------------------ *)
(* JSON output                                                         *)
(* ------------------------------------------------------------------ *)

type json =
  | I of int
  | F of float
  | B of bool
  | S of string
  | L of json list
  | O of (string * json) list

let rec emit b = function
  | I i -> Buffer.add_string b (string_of_int i)
  | F f ->
      Buffer.add_string b
        (if Float.is_finite f then Printf.sprintf "%.17g" f else "null")
  | B v -> Buffer.add_string b (string_of_bool v)
  | S s ->
      Buffer.add_char b '"';
      String.iter
        (function
          | ('"' | '\\') as c ->
              Buffer.add_char b '\\';
              Buffer.add_char b c
          | c when Char.code c < 0x20 ->
              Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
          | c -> Buffer.add_char b c)
        s;
      Buffer.add_char b '"'
  | L l ->
      Buffer.add_char b '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char b ',';
          emit b v)
        l;
      Buffer.add_char b ']'
  | O kv ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          emit b (S k);
          Buffer.add_char b ':';
          emit b v)
        kv;
      Buffer.add_char b '}'

(* ------------------------------------------------------------------ *)
(* Inputs                                                              *)
(* ------------------------------------------------------------------ *)

(* The receive frame injected into the NIC at boot: 24 splitmix64 bytes
   of the input variant. *)
let frame variant =
  let z = ref (Int64.mul (Int64.of_int (variant + 1)) 0x9e3779b97f4a7c15L) in
  let next () =
    z := Int64.add !z 0x9e3779b97f4a7c15L;
    let open Int64 in
    let x = !z in
    let x = mul (logxor x (shift_right_logical x 30)) 0xbf58476d1ce4e5b9L in
    let x = mul (logxor x (shift_right_logical x 27)) 0x94d049bb133111ebL in
    logxor x (shift_right_logical x 31)
  in
  Array.init 24 (fun _ -> Int64.to_int (next ()) land 0xff)

let inject_frame (s : State.t) variant =
  ignore (S2e_vm.Netdev.inject_frame s.State.devices.netdev (frame variant))

let netdev_ports = (S2e_vm.Layout.port_netdev, S2e_vm.Layout.port_netdev + 16)

(* ------------------------------------------------------------------ *)
(* Unit coverage                                                       *)
(* ------------------------------------------------------------------ *)

(* Process-global unit-coverage tracker: the first execution time of
   every unit instruction address.  Global rather than per engine
   because distributed workers build a fresh engine per slice. *)
module Unitcov = struct
  let seen : (int, unit) Hashtbl.t = Hashtbl.create 8192
  let covered = ref 0
  let last = ref 0.
  let last_instret = ref 0

  (* Extra action on a newly covered unit address (distributed workers
     publish it through the metrics registry). *)
  let on_cover : (int -> float -> unit) ref = ref (fun _ _ -> ())

  let attach engine =
    Events.reg_before_instr engine.Executor.events (fun _ addr _ ->
        if not (Hashtbl.mem seen addr) then begin
          Hashtbl.replace seen addr ();
          if Executor.in_unit engine addr then begin
            incr covered;
            let t = now () in
            last := t;
            last_instret := engine.Executor.stats.concrete_instret;
            !on_cover addr t
          end
        end)
end

(* ------------------------------------------------------------------ *)
(* Layer readings                                                      *)
(* ------------------------------------------------------------------ *)

let phase_names =
  [ "translate"; "execute"; "fork"; "concretize"; "solver"; "steal" ]

let phase snap p = Obs.Metrics.get_float snap ("phase." ^ p ^ "_s")

let phases_sum snap =
  List.fold_left (fun a p -> a +. phase snap p) 0. phase_names

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

let percentile sorted q =
  match Array.length sorted with
  | 0 -> 0.
  | n -> sorted.(min (n - 1) (int_of_float (q *. float_of_int n)))

(* Counters of the exploration layers, read from the metrics snapshot
   [snap] and the executor and solver statistics.  [unattributed_s] is
   the wall time no phase span claims. *)
let layers ~snap ~(st : Executor.stats) ~(ss : Solver.stats) ~paths ~wall
    ~unattributed_s =
  let count = Obs.Metrics.get_int snap in
  let hits = count "dbt.tb_hits" and misses = count "dbt.tb_misses" in
  [
    ("core.paths", I paths);
    ("core.forks", I st.forks);
    ("core.instructions", I st.concrete_instret);
    ("core.instr_per_s", F (float_of_int st.concrete_instret /. wall));
    ("core.execute_s", F (phase snap "execute"));
    ("core.fork_s", F (phase snap "fork"));
    ("core.concretize_s", F (phase snap "concretize"));
    ("core.steal_s", F (phase snap "steal"));
    ("core.unattributed_s", F unattributed_s);
    ("core.max_live_states", I st.max_live_states);
    ("core.footprint_bytes", I st.footprint_watermark);
    ("dbt.translate_s", F (phase snap "translate"));
    ("dbt.tb_hit_rate", F (ratio hits (hits + misses)));
    ("dbt.tb_misses", I misses);
    ("solver.queries", I ss.queries);
    ("solver.queries_per_path", F (ratio ss.queries paths));
    ("solver.busy_s", F (phase snap "solver"));
    ("solver.cache_hit_rate", F (ratio ss.cache_hits ss.queries));
    ("solver.sat_queries", I ss.sat_queries);
    ( "solver.inc_reuse_rate",
      F (ratio (ss.inc_hits + ss.inc_partials) ss.sat_queries) );
    ("solver.unknowns", I ss.unknowns);
    ("solver.max_query_ms", F (1e3 *. ss.max_time));
  ]

(* VmHWM of this process, in MiB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
    | _ -> scan ()
    | exception End_of_file -> 0.
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* Bytes this process moved through read/write system calls (its
   sockets, for the coordinator). *)
let io_bytes () =
  let ic = open_in "/proc/self/io" in
  let rec scan acc =
    match input_line ic with
    | line -> (
        match Scanf.sscanf_opt line "%s@: %d" (fun k v -> (k, v)) with
        | Some (("rchar" | "wchar"), v) -> scan (acc + v)
        | _ -> scan acc)
    | exception End_of_file -> acc
  in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> scan 0)

(* Per-query classes of the traced run, from the [Query] operand
   inc*16 + result*4 + cache. *)
let query_classes =
  [ "model_hit"; "unsat_hit"; "cold_sat"; "cold_unsat"; "inc_partial";
    "inc_full" ]

let classify c =
  let inc = c / 16 and result = c / 4 mod 4 and cache = c mod 4 in
  if cache = 1 then Some "model_hit"
  else if cache = 2 then Some "unsat_hit"
  else if inc = 2 then Some "inc_full"
  else if inc = 1 then Some "inc_partial"
  else if result = 0 then Some "cold_sat"
  else if result = 1 then Some "cold_unsat"
  else None

let trace_layers (events : Obs.Trace.event list) ~dropped =
  let by_class = Hashtbl.create 8 in
  let durations k = Option.value ~default:[] (Hashtbl.find_opt by_class k) in
  List.iter
    (fun (e : Obs.Trace.event) ->
      if e.ev_code = Obs.Trace.Query then
        match classify e.ev_c with
        | Some k -> Hashtbl.replace by_class k (e.ev_dur :: durations k)
        | None -> ())
    events;
  let cls =
    List.map
      (fun k ->
        let durs = Array.of_list (durations k) in
        Array.sort compare durs;
        ( k,
          O
            [
              ("count", I (Array.length durs));
              ("busy_s", F (Array.fold_left ( +. ) 0. durs));
              ("us_p50", F (1e6 *. percentile durs 0.50));
              ("us_p98", F (1e6 *. percentile durs 0.98));
            ] ))
      query_classes
  in
  [
    ("trace_events", I (List.length events));
    ("trace_dropped", I dropped);
    ("query_classes", O cls);
  ]

let start_trace traced capacity =
  if traced then begin
    Obs.Trace.set_capacity capacity;
    Obs.Trace.set_enabled true;
    Obs.Trace.reset ()
  end

(* Statuses as a sorted multiset. *)
let multiset statuses =
  let h = Hashtbl.create 8 in
  List.iter
    (fun s ->
      Hashtbl.replace h s (1 + Option.value ~default:0 (Hashtbl.find_opt h s)))
    statuses;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) h []
  |> List.sort compare
  |> List.map (fun (k, v) -> (k, I v))

let digest lines =
  Digest.to_hex (Digest.string (String.concat "\n" (List.sort compare lines)))

let count_incomplete states =
  List.length (List.filter (fun (s : State.t) -> s.incomplete) states)

(* ------------------------------------------------------------------ *)
(* Case checks by concrete evaluation                                  *)
(* ------------------------------------------------------------------ *)

let satisfied m constraints =
  List.for_all (fun c -> Expr.eval m c = 1L) constraints

let rec permutations = function
  | [] -> [ [] ]
  | l ->
      List.concat
        (List.mapi
           (fun i x ->
             List.filteri (fun j _ -> j <> i) l
             |> permutations
             |> List.map (fun p -> x :: p))
           l)

(* Does the named case [tc] (as [Parallel.test_case] renders it) satisfy
   the path constraints under [Expr.eval]?  Names may repeat within a
   path, so same-named variables try every assignment of the same-named
   values. *)
let case_holds constraints tc =
  let vars =
    List.fold_left
      (Expr.fold_vars (fun acc id name _ ->
           if List.mem_assoc id acc then acc else (id, name) :: acc))
      [] constraints
  in
  let groups =
    List.sort_uniq compare (List.map snd vars)
    |> List.map (fun n ->
           ( List.filter_map
               (fun (id, n') -> if n = n' then Some id else None)
               vars,
             List.filter_map (fun (n', v) -> if n = n' then Some v else None) tc
           ))
  in
  let assignable (ids, vs) =
    List.length ids = List.length vs && List.length ids <= 5
  in
  let rec go m = function
    | [] -> satisfied m constraints
    | (ids, vs) :: rest ->
        List.exists
          (fun perm ->
            let bind m id v = Expr.Int_map.add id v m in
            go (List.fold_left2 bind m ids perm) rest)
          (permutations vs)
  in
  List.for_all assignable groups && go Expr.Int_map.empty groups

(* ------------------------------------------------------------------ *)
(* Serial exploration                                                  *)
(* ------------------------------------------------------------------ *)

(* Explore from [s0] to [budget] instructions (or to a drain), timing
   the run and reading the layers' counters at its end.  The process is
   fresh, so the registry holds exactly this exploration. *)
let serial_explore ~traced ~budget engine s0 =
  let t0 = now () in
  let limits =
    {
      Executor.max_instructions = budget;
      max_seconds = Some safety_net_s;
      max_completed = None;
    }
  in
  ignore (Executor.run ~limits engine s0);
  let wall = now () -. t0 in
  let snap = Obs.Metrics.snapshot () in
  let trace =
    if traced then begin
      let events, dropped = Obs.Trace.drain () in
      Obs.Trace.set_enabled false;
      trace_layers events ~dropped
    end
    else []
  in
  let st = engine.Executor.stats in
  let reached =
    match budget with Some b -> st.concrete_instret > b | None -> false
  in
  let tripped = engine.Executor.live <> [] && not reached in
  let layers =
    layers ~snap ~st ~ss:Solver.stats ~paths:st.states_completed ~wall
      ~unattributed_s:(wall -. phases_sum snap)
  in
  (wall, t0, tripped, layers, trace)

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

let result ~workload ~variant ~traced ~times ~outputs ~layers ~failures
    ~attempted ~cases ~trace =
  O
    [
      ("workload", S workload);
      ("variant", I variant);
      ("traced", B traced);
      ("times", O times);
      ("outputs", O outputs);
      ("layers", O layers);
      ("cases", O cases);
      ("trace", O trace);
      ("failures", O failures);
      ("attempted", I attempted);
      ("peak_rss_mb", F (peak_rss_mb ()));
    ]

let case_stats lat_s ~check_failures =
  [
    ("count", I (List.length lat_s));
    ("busy_s", F (List.fold_left ( +. ) 0. lat_s));
    ("ms", L (List.map (fun t -> F (1e3 *. t)) lat_s));
    ("check_failures", I check_failures);
  ]

let on_state_end engine f = Events.reg_state_end engine.Executor.events f

let ddt_pcnet ~variant ~traced ~budget ~capacity =
  let t_start = now () in
  let driver = "pcnet" in
  let img, build_s =
    timed (fun () ->
        Guest.build
          ~driver:(driver, List.assoc driver Guest.drivers)
          ~workload:("exerciser", S2e_guest.Workloads_src.exerciser)
          ())
  in
  let t_engine = now () in
  let config = Executor.default_config () in
  config.consistency <- Consistency.LC;
  config.symbolic_hardware_ports <- [ netdev_ports ];
  config.max_fork_depth <- 96;
  let engine = Executor.create ~config () in
  Guest.load_into_engine engine img;
  Executor.set_unit engine [ driver ];
  Unitcov.attach engine;
  let checker =
    Memchecker.attach engine
      ~alloc_addr:(Guest.symbol img "alloc")
      ~free_addr:(Guest.symbol img "kfree")
      ~unit_name:driver
  in
  let _races = Race_detector.attach engine in
  let _bugcheck =
    Bugcheck.attach engine ~panic_addr:(Guest.symbol img "panic")
  in
  let _killer = Path_killer.attach ~max_repeats:3000 engine in
  let bugs = ref [] in
  Events.reg_bug engine.Executor.events (fun b ->
      let key = Printf.sprintf "%s@0x%x" b.Events.bug_kind b.bug_pc in
      if not (List.mem key !bugs) then bugs := key :: !bugs);
  Ddt.install_lc_annotations engine img checker;
  let completed = ref [] in
  on_state_end engine (fun s -> completed := s :: !completed);
  let s0 = Executor.boot engine ~entry:img.entry () in
  inject_frame s0 variant;
  let engine_s = now () -. t_engine in
  start_trace traced capacity;
  let explore_s, t_explore, tripped, layers, trace =
    serial_explore ~traced ~budget:(Some budget) engine s0
  in
  let saturation_s = !Unitcov.last -. t_explore in
  (* One test case per completed path, each timed on its own. *)
  let t_cases = now () in
  let cases =
    List.rev_map
      (fun s ->
        let tcs, dt = timed (fun () -> Parallel.test_cases s) in
        (s, tcs, dt))
      !completed
  in
  let cases_s = now () -. t_cases in
  let total_s = now () -. t_start in
  let lines, failures, lat =
    List.fold_left
      (fun (lines, bad, lat) ((s : State.t), tcs, dt) ->
        let status = State.report_string s in
        let wrong =
          List.filter (fun tc -> not (case_holds s.constraints tc)) tcs
        in
        let render tc = status ^ " | " ^ Parallel.test_case_to_string tc in
        ( List.map render tcs @ lines,
          bad + List.length wrong + (if tcs = [] then 1 else 0),
          dt :: lat ))
      ([], 0, []) cases
  in
  let st = engine.Executor.stats in
  result ~workload:"ddt_pcnet" ~variant ~traced
    ~times:
      [
        ("build_s", F build_s);
        ("engine_s", F engine_s);
        ("explore_s", F explore_s);
        ("saturation_s", F saturation_s);
        ("cases_s", F cases_s);
        ("total_s", F total_s);
      ]
    ~outputs:
      [
        ("paths", I st.states_completed);
        ("instructions", I st.concrete_instret);
        ("forks", I st.forks);
        ("statuses", O (multiset (List.map State.report_string !completed)));
        ("case_digest", S (digest lines));
        ("unit_coverage", I !Unitcov.covered);
        ("saturation_instructions", I !Unitcov.last_instret);
        ("bugs", L (List.map (fun b -> S b) (List.sort compare !bugs)));
      ]
    ~layers ~cases:(case_stats lat ~check_failures:failures) ~trace
    ~failures:
      [
        ("incomplete_paths", I (count_incomplete !completed));
        ("solver_unknowns", I Solver.stats.unknowns);
        ("case_check_failures", I failures);
        ("safety_net", I (if tripped then 1 else 0));
      ]
    ~attempted:st.states_completed

let profs_urlparse ~variant ~traced ~budget ~capacity =
  let t_start = now () in
  let img, build_s =
    timed (fun () ->
        Guest.build
          ~driver:("nulldrv", S2e_guest.Drivers_src.nulldrv)
          ~workload:("urlparse", S2e_guest.Workloads_src.urlparse)
          ())
  in
  let t_engine = now () in
  let config = Executor.default_config () in
  config.consistency <- Consistency.LC;
  let engine = Executor.create ~config () in
  Guest.load_into_engine engine img;
  Executor.set_unit engine [ "urlparse" ];
  Unitcov.attach engine;
  let profile = Perf_profile.attach engine in
  let _killer = Path_killer.attach ~max_repeats:150 engine in
  (* One input solve per completed path, as PROFS does it; each input is
     then checked against the path constraints by concrete evaluation. *)
  let solves = ref [] in
  on_state_end engine (fun s ->
      let tags = engine.Executor.var_tags in
      let input, dt = timed (fun () -> Profs.input_of_model engine s) in
      solves := (s, tags, input, dt) :: !solves);
  (* urlparse's input is wholly symbolic: the variant changes nothing. *)
  ignore variant;
  let s0 = Executor.boot engine ~entry:img.entry () in
  let engine_s = now () -. t_engine in
  start_trace traced capacity;
  let explore_s, t_explore, tripped, layers, trace =
    serial_explore ~traced ~budget:(Some budget) engine s0
  in
  let saturation_s = !Unitcov.last -. t_explore in
  let total_s = now () -. t_start in
  (* [input_of_model] lists every tagged variable in [tags] order. *)
  let input_holds (s : State.t) tags input =
    List.length input = List.length tags
    &&
    let m =
      List.fold_left2
        (fun m (id, _) (_, v) -> Expr.Int_map.add id (Int64.of_int v) m)
        Expr.Int_map.empty tags input
    in
    satisfied m s.constraints
  in
  let check_failures =
    List.length
      (List.filter
         (fun (s, tags, input, _) -> not (input_holds s tags input))
         !solves)
  in
  let lat = List.map (fun (_, _, _, dt) -> dt) !solves in
  let reports = Perf_profile.reports profile in
  let totals =
    List.map (fun (r : Perf_profile.report) -> r.r_totals) reports
  in
  let sum f = List.fold_left (fun a t -> a + f t) 0 totals in
  let profile_lines =
    List.map
      (fun (r : Perf_profile.report) ->
        let t = r.r_totals in
        Printf.sprintf "%s %d %d %d %d %d %d" r.r_status r.r_instructions
          t.S2e_cachesim.Hierarchy.i1_misses t.d1_misses t.l2_misses
          t.tlb_misses t.page_faults)
      reports
  in
  let misses =
    [
      ("i1_misses", I (sum (fun t -> t.S2e_cachesim.Hierarchy.i1_misses)));
      ("d1_misses", I (sum (fun t -> t.d1_misses)));
      ("l2_misses", I (sum (fun t -> t.l2_misses)));
      ("tlb_misses", I (sum (fun t -> t.tlb_misses)));
      ("page_faults", I (sum (fun t -> t.page_faults)));
    ]
  in
  let st = engine.Executor.stats in
  let ended = List.map (fun (s, _, _, _) -> s) !solves in
  result ~workload:"profs_urlparse" ~variant ~traced
    ~times:
      [
        ("build_s", F build_s);
        ("engine_s", F engine_s);
        ("explore_s", F explore_s);
        ("saturation_s", F saturation_s);
        ("cases_s", F (List.fold_left ( +. ) 0. lat));
        ("total_s", F total_s);
      ]
    ~outputs:
      [
        ("paths", I st.states_completed);
        ("instructions", I st.concrete_instret);
        ("forks", I st.forks);
        ("statuses", O (multiset (List.map State.report_string ended)));
        ("profile_digest", S (digest profile_lines));
        ("misses", O misses);
        ("unit_coverage", I !Unitcov.covered);
        ("saturation_instructions", I !Unitcov.last_instret);
      ]
    ~layers ~cases:(case_stats lat ~check_failures) ~trace
    ~failures:
      [
        ("incomplete_paths", I (count_incomplete ended));
        ("solver_unknowns", I Solver.stats.unknowns);
        ("case_check_failures", I check_failures);
        ("safety_net", I (if tripped then 1 else 0));
      ]
    ~attempted:st.states_completed

(* c111 under LC as `s2e_cli explore` sets it up (dfs searcher, no
   merging), plus the unit-coverage tracker. *)
let c111_image () =
  Guest.build
    ~driver:("c111", List.assoc "c111" Guest.drivers)
    ~workload:("exerciser", S2e_guest.Workloads_src.exerciser)
    ()

let c111_units = [ "c111"; "exerciser" ]

let c111_engine img () =
  let config = Executor.default_config () in
  config.consistency <- Consistency.LC;
  config.symbolic_hardware_ports <- [ netdev_ports ];
  let engine = Executor.create ~config () in
  Guest.load_into_engine engine img;
  Executor.set_unit engine c111_units;
  Unitcov.attach engine;
  engine

let c111_serial ~variant =
  let img = c111_image () in
  let engine = c111_engine img () in
  let completed = ref [] in
  on_state_end engine (fun s -> completed := s :: !completed);
  let s0 = Executor.boot engine ~entry:img.entry () in
  inject_frame s0 variant;
  let explore_s, _, tripped, layers, _ =
    serial_explore ~traced:false ~budget:None engine s0
  in
  let st = engine.Executor.stats in
  result ~workload:"c111_serial" ~variant ~traced:false
    ~times:[ ("explore_s", F explore_s) ]
    ~outputs:
      [
        ("paths", I st.states_completed);
        ("instructions", I st.concrete_instret);
        ("forks", I st.forks);
        ("statuses", O (multiset (List.map State.report_string !completed)));
        ("unit_coverage", I !Unitcov.covered);
      ]
    ~layers ~cases:[] ~trace:[]
    ~failures:[ ("safety_net", I (if tripped then 1 else 0)) ]
    ~attempted:st.states_completed

(* Coverage crosses process boundaries through the metrics registry: one
   Max gauge per unit instruction address, registered before the workers
   fork, holding [stamp_base - first execution time in us] so that the
   cross-process Max merge yields the earliest first execution and an
   unset gauge reads 0. *)
let stamp_base = 1 lsl 61
let cov_gauge addr = Printf.sprintf "bench.cov.%d" addr

let c111_dist ~variant ~traced ~capacity =
  let t_start = now () in
  let img, build_s = timed c111_image in
  let t_engine = now () in
  let probe = c111_engine img () in
  let gauges = Hashtbl.create 4096 in
  List.iter
    (fun name ->
      match Module_map.entry probe.Executor.modules name with
      | None -> ()
      | Some e ->
          let a = ref e.code_start in
          while !a < e.code_end do
            Hashtbl.replace gauges !a
              (Obs.Metrics.gauge ~merge:Obs.Metrics.Max (cov_gauge !a));
            a := !a + S2e_isa.Insn.insn_size
          done)
    c111_units;
  Unitcov.on_cover :=
    (fun addr t ->
      match Hashtbl.find_opt gauges addr with
      | Some g -> Obs.Metrics.set g (stamp_base - int_of_float (t *. 1e6))
      | None -> ());
  let engine_s = now () -. t_engine in
  start_trace traced capacity;
  let first_dispatch = ref None in
  let on_event = function
    | Coordinator.Dispatched _ when !first_dispatch = None ->
        first_dispatch := Some (now ())
    | _ -> ()
  in
  let boot eng =
    let s0 = Executor.boot eng ~entry:img.entry () in
    inject_frame s0 variant;
    s0
  in
  let limits =
    {
      Executor.max_instructions = None;
      max_seconds = Some safety_net_s;
      max_completed = None;
    }
  in
  let make_engine = c111_engine img in
  let cpu0 = Unix.times () in
  let io0 = io_bytes () in
  let t_call = now () in
  let r =
    Coordinator.explore ~procs:2 ~limits ~on_event
      ~spawn:(Coordinator.Fork { jobs = 1; slice = 0.05; make_engine })
      ~make_engine ~boot ()
  in
  let t_end = now () in
  let cpu1 = Unix.times () in
  let io1 = io_bytes () in
  let t_dispatch = Option.value ~default:t_end !first_dispatch in
  let spawn_s = t_dispatch -. t_call in
  let explore_s = t_end -. t_dispatch in
  let m = r.Coordinator.obs in
  let first_covers =
    Hashtbl.fold
      (fun addr _ acc ->
        match Obs.Metrics.find m (cov_gauge addr) with
        | Some (Obs.Metrics.Int v) when v > 0 ->
            (float_of_int (stamp_base - v) /. 1e6) :: acc
        | _ -> acc)
      gauges []
  in
  let saturation_s =
    List.fold_left Float.max t_call first_covers -. t_dispatch
  in
  let trace =
    if traced then begin
      Obs.Trace.set_enabled false;
      trace_layers r.trace ~dropped:r.trace_dropped
    end
    else []
  in
  let paths = List.length r.paths in
  (* Worker self-time: the merged registry minus the coordinator's own. *)
  let busy = phases_sum m -. phases_sum (Obs.Metrics.snapshot ()) in
  let wait = (2. *. explore_s) -. busy in
  let cpu (t : Unix.process_times) = t.tms_utime +. t.tms_stime in
  let layers =
    layers ~snap:m ~st:r.stats ~ss:r.solver_stats ~paths ~wall:explore_s
      ~unattributed_s:wait
    @ [
        ("dist.spawn_s", F spawn_s);
        ("dist.worker_busy_frac", F (busy /. (2. *. explore_s)));
        ("dist.worker_wait_s", F wait);
        ("dist.coordinator_cpu_s", F (cpu cpu1 -. cpu cpu0));
        ("dist.transport_bytes", I (io1 - io0));
        ("dist.delta_ratio", F (ratio r.delta_bytes r.delta_full_bytes));
        ("dist.steals", I r.steals);
        ("dist.requeues", I r.requeues);
        ("dist.retransmits", I r.retransmits);
      ]
  in
  let statuses =
    List.map (fun (p : S2e_dist.Proto.path) -> p.p_status) r.paths
  in
  let incomplete =
    List.length
      (List.filter (String.ends_with ~suffix:"[incomplete]") statuses)
  in
  result ~workload:"c111_dist" ~variant ~traced
    ~times:
      [
        ("build_s", F build_s);
        ("engine_s", F (engine_s +. spawn_s));
        ("explore_s", F explore_s);
        ("saturation_s", F saturation_s);
        ("cases_s", F 0.);
        ("total_s", F (t_end -. t_start));
      ]
    ~outputs:
      [
        ("paths", I paths);
        ("instructions", I r.stats.concrete_instret);
        ("forks", I r.stats.forks);
        ("statuses", O (multiset statuses));
        ("unit_coverage", I (List.length first_covers));
      ]
    ~layers ~cases:(case_stats [] ~check_failures:0) ~trace
    ~failures:
      [
        ("incomplete_paths", I incomplete);
        ("solver_unknowns", I r.solver_stats.unknowns);
        ("abandoned_items", I (List.length r.abandoned));
        ("safety_net", I (if r.unexplored > 0 then 1 else 0));
      ]
    ~attempted:(paths + List.length r.abandoned)

let () =
  match Array.to_list Sys.argv with
  | [ _; workload; variant; traced; budget; capacity ] ->
      let variant = int_of_string variant
      and traced = traced = "1"
      and budget = int_of_string budget
      and capacity = int_of_string capacity in
      let r =
        match workload with
        | "ddt_pcnet" -> ddt_pcnet ~variant ~traced ~budget ~capacity
        | "profs_urlparse" -> profs_urlparse ~variant ~traced ~budget ~capacity
        | "c111_dist" -> c111_dist ~variant ~traced ~capacity
        | "c111_serial" -> c111_serial ~variant
        | w ->
            prerr_endline ("bench: unknown workload " ^ w);
            exit 2
      in
      let b = Buffer.create 4096 in
      emit b r;
      print_endline (Buffer.contents b)
  | _ ->
      prerr_endline
        "usage: bench.exe WORKLOAD VARIANT TRACED BUDGET TRACE_CAPACITY";
      exit 2
