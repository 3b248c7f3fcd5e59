(* End-to-end tests for the three tools: the paper's headline results must
   reproduce.  These runs take a few seconds each. *)

open S2e_core
open S2e_tools

(* --- DDT+: 2 bugs under SC-SE, all 7 under LC (paper section 6.1.1) --- *)

(* Every run stops on its instruction budget or by draining its paths;
   the wall-clock limit is only a safety net, so the assertions do not
   depend on machine speed. *)
let ddt ~driver ~consistency =
  let max_instructions = 3_000_000 in
  let r = Ddt.run ~max_seconds:120.0 ~max_instructions ~driver ~consistency () in
  Alcotest.(check bool)
    (Printf.sprintf "%s under %s ended on its instruction budget or drained"
       driver (Consistency.name consistency))
    true
    (r.Ddt.instructions > max_instructions || r.drained);
  r

let test_ddt_scse () =
  let pcnet = ddt ~driver:"pcnet" ~consistency:Consistency.SC_SE in
  let rtl = ddt ~driver:"rtl8029" ~consistency:Consistency.SC_SE in
  Alcotest.(check int) "2 bugs total under SC-SE" 2
    (Ddt.seeded_bug_count pcnet + Ddt.seeded_bug_count rtl)

let test_ddt_lc () =
  let pcnet = ddt ~driver:"pcnet" ~consistency:Consistency.LC in
  let rtl = ddt ~driver:"rtl8029" ~consistency:Consistency.LC in
  let total = Ddt.seeded_bug_count pcnet + Ddt.seeded_bug_count rtl in
  Alcotest.(check int) "7 bugs total under LC" 7 total;
  (* The bug classes the paper lists: memory corruption, leaks, races. *)
  let kinds =
    List.sort_uniq compare
      (List.map (fun (b : Ddt.bug_report) -> b.kind) (pcnet.bugs @ rtl.bugs))
  in
  Alcotest.(check (list string)) "bug classes" [ "memory"; "race" ] kinds

let test_ddt_no_bugs_in_clean_drivers () =
  List.iter
    (fun driver ->
      let r = ddt ~driver ~consistency:Consistency.LC in
      Alcotest.(check int) (driver ^ " clean") 0 (Ddt.seeded_bug_count r))
    [ "c111"; "rtl8139" ]

(* --- REV+: better coverage than the RevNIC-style baseline (Table 5) --- *)

let test_rev_beats_baseline () =
  let plus = Rev.run ~max_seconds:10.0 ~mode:`Rev_plus ~driver:"rtl8139" () in
  let base = Rev.run ~max_seconds:10.0 ~mode:`Revnic_baseline ~driver:"rtl8139" () in
  Alcotest.(check bool)
    (Printf.sprintf "REV+ (%.0f%%) >= baseline (%.0f%%)"
       (100. *. plus.coverage) (100. *. base.coverage))
    true
    (plus.coverage >= base.coverage);
  Alcotest.(check bool) "meaningful coverage" true (plus.coverage > 0.5)

let test_rev_synthesis () =
  let r = Rev.run ~max_seconds:8.0 ~driver:"rtl8029" () in
  Alcotest.(check bool) "blocks recovered" true (List.length r.cfg.blocks > 10);
  let listing = Rev.synthesize r.cfg in
  (* Entry points appear as labels in the synthesized driver. *)
  let contains needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "driver_init synthesized" true
    (contains "driver_init:" listing);
  Alcotest.(check bool) "control-flow edges present" true
    (contains "// ->" listing)

(* --- PROFS (section 6.1.3) --- *)

let test_profs_url_linear_in_slashes () =
  let r =
    Profs.run ~max_seconds:15.0
      ~workload:("urlparse", S2e_guest.Workloads_src.urlparse)
      ()
  in
  let pts =
    List.filter_map
      (fun p ->
        if p.Profs.p_status = "halted" then
          Some
            ( float_of_int (Profs.count_input_byte p ~prefix:"sym1" (Char.code '/')),
              float_of_int p.Profs.p_instructions )
        else None)
      r.paths
  in
  Alcotest.(check bool) "many paths" true (List.length pts > 100);
  match Profs.regression pts with
  | None -> Alcotest.fail "no regression"
  | Some (slope, _) ->
      (* The paper reports a small constant cost per '/' character. *)
      Alcotest.(check bool)
        (Printf.sprintf "per-slash cost positive and small (%.1f)" slope)
        true
        (slope > 1.0 && slope < 100.0)

let test_profs_ping_finds_infinite_loop () =
  let reply = Array.make 28 0 in
  reply.(0) <- 0x45;
  let driver = ("pcnet", List.assoc "pcnet" S2e_guest.Guest.drivers) in
  let r =
    Profs.run ~max_seconds:25.0 ~driver ~frames:[ reply ]
      ~workload:("ping", S2e_guest.Workloads_src.ping ~buggy:true)
      ()
  in
  Alcotest.(check bool) "unbounded path detected" true r.unbounded

let test_profs_ping_envelope_after_patch () =
  let reply = Array.make 28 0 in
  reply.(0) <- 0x45;
  let driver = ("pcnet", List.assoc "pcnet" S2e_guest.Guest.drivers) in
  let r =
    Profs.run ~max_seconds:25.0 ~driver ~frames:[ reply ]
      ~workload:("ping", S2e_guest.Workloads_src.ping ~buggy:false)
      ()
  in
  Alcotest.(check bool) "no unbounded path" false r.unbounded;
  match Profs.envelope r with
  | None -> Alcotest.fail "no envelope"
  | Some (lo, hi) ->
      Alcotest.(check bool)
        (Printf.sprintf "envelope [%d, %d] is a real spread" lo hi)
        true
        (lo > 0 && hi > lo)

(* --- Consistency-model experiments (section 6.3) --- *)

let test_models_driver_coverage_ordering () =
  let run model = Model_exp.run_driver ~max_seconds:8.0 ~driver:"c111" ~consistency:model () in
  let rc_oc = run Consistency.RC_OC in
  let lc = run Consistency.LC in
  let sc_ue = run Consistency.SC_UE in
  (* Weaker models achieve at least as much coverage; SC-UE fails to load
     the driver (paper Fig. 7). *)
  Alcotest.(check bool) "RC-OC >= LC - eps" true (rc_oc.coverage >= lc.coverage -. 0.05);
  Alcotest.(check bool) "SC-UE driver fails to load" true (sc_ue.coverage < 0.3);
  Alcotest.(check bool) "SC-UE finishes immediately" true (sc_ue.seconds < 2.0);
  Alcotest.(check int) "SC-UE explores one path" 1 sc_ue.paths

let test_models_mua () =
  let lc = Model_exp.run_mua ~max_seconds:8.0 ~consistency:Consistency.LC () in
  let sc_se = Model_exp.run_mua ~max_seconds:8.0 ~consistency:Consistency.SC_SE () in
  (* LC bypasses the lexer; SC-SE drowns in it (paper section 6.3). *)
  Alcotest.(check bool)
    (Printf.sprintf "LC (%.0f%%) > SC-SE (%.0f%%) on the interpreter"
       (100. *. lc.coverage) (100. *. sc_se.coverage))
    true
    (lc.coverage > sc_se.coverage)

(* --- per-branch fixed costs stay cut (deterministic counts only) --- *)

(* Narrowed DDT+ on pcnet to a fixed instruction budget, never seconds
   (the wall-clock limit is only a safety net).  Asserts on the counts
   the per-branch fixes leave behind: path-ordered slices make the SAT
   core's assumption stacks share prefixes, the driver's loop re-tests
   are answered by the syntactic contradiction check, and the footprint
   watermark is folded once per fork-count change, not per block. *)
let test_ddt_pcnet_fixed_costs () =
  let module Solver = S2e_solver.Solver in
  let module M = S2e_obs.Metrics in
  Solver.clear_caches Solver.default_ctx;
  let before = M.snapshot () in
  let r =
    Ddt.run ~max_seconds:120.0 ~max_instructions:300_000 ~driver:"pcnet"
      ~consistency:Consistency.LC ()
  in
  let after = M.snapshot () in
  let delta name = M.get_int after name - M.get_int before name in
  Alcotest.(check bool) "instruction budget reached" true
    (r.Ddt.instructions > 300_000);
  let sat = delta "solver.sat_queries" in
  let reused = delta "solver.inc_hits" + delta "solver.inc_partials" in
  Alcotest.(check bool)
    (Printf.sprintf "SAT-core reuse %d/%d >= 0.5" reused sat)
    true
    (sat > 0 && 2 * reused >= sat);
  Alcotest.(check bool) "contradiction answers > 0" true
    (delta "solver.contradictions" > 0);
  let forks = delta "engine.forks" in
  let samples = delta "engine.footprint_samples" in
  Alcotest.(check bool)
    (Printf.sprintf "footprint folds %d <= forks %d + 1" samples forks)
    true
    (forks > 0 && samples <= forks + 1)

(* The original depth-first searcher: filter finished states out of the
   whole stack at every pick, then take the top.  Reference for
   [Searcher.dfs], which only pops finished states off the top. *)
let reference_dfs () =
  let stack = ref [] in
  {
    Searcher.add = (fun s -> stack := s :: !stack);
    remove =
      (fun s -> stack := List.filter (fun s' -> s'.State.id <> s.State.id) !stack);
    select =
      (fun () ->
        stack := List.filter State.is_active !stack;
        match !stack with [] -> None | s :: _ -> Some s);
    size = (fun () -> List.length (List.filter State.is_active !stack));
  }

(* Random adds, removals, picks, and states finished behind the
   searcher's back (so finished states sit anywhere in the stack). *)
let test_dfs_matches_filter_then_head () =
  let rng = Random.State.make [| 15 |] in
  let dfs = Searcher.dfs () and reference = reference_dfs () in
  let states = ref [] in
  for step = 1 to 5000 do
    match Random.State.int rng 5 with
    | 0 | 1 ->
        let s =
          State.create
            ~mem:(Symmem.create ~base:(Bytes.create 16))
            ~devices:(S2e_vm.Devices.create ()) ~pc:0
        in
        states := s :: !states;
        dfs.add s;
        reference.add s
    | 2 -> (
        match !states with
        | [] -> ()
        | l -> (List.nth l (Random.State.int rng (List.length l))).status <- State.Halted)
    | 3 -> (
        match !states with
        | [] -> ()
        | l ->
            let s = List.nth l (Random.State.int rng (List.length l)) in
            dfs.remove s;
            reference.remove s)
    | _ ->
        (match dfs.select (), reference.select () with
        | Some a, Some b when a == b -> ()
        | None, None -> ()
        | _ -> Alcotest.failf "pick %d differs from filter-then-head" step);
        Alcotest.(check int) "size" (reference.size ()) (dfs.size ())
  done

(* The per-block bookkeeping against full recomputations at the same
   points, on the same narrowed DDT+ pcnet run.  A wrapper searcher
   observes the engine between blocks: the footprint watermark must
   equal the maximum of full footprint folds over the live states taken
   after every block that changed the fork count, the
   [engine.max_constraint_set] gauge the maximum path-condition length
   at the end of every block that ran to its end (the engine's
   instruction count moved), and the depth-first selection must pick the
   same state at every step as the original filter-then-head searcher,
   which runs in lockstep as the reference. *)
let test_ddt_pcnet_bookkeeping_matches_full_folds () =
  let module M = S2e_obs.Metrics in
  let full_footprint (s : State.t) =
    Array.length s.regs
    + Symmem.overlay_size s.mem
    + List.fold_left (fun acc c -> acc + S2e_expr.Expr.size c) 0 s.constraints
  in
  let watermark = ref 0 and max_constraints = ref 0 and selections = ref 0 in
  let sampled_forks = ref (-1) and instret = ref 0 and last = ref None in
  (* Runs before every selection and once after the run: the engine has
     finished the previous block (and its footprint sample) by then. *)
  let observe (eng : Executor.t) =
    match !last with
    | None -> ()
    | Some (s : State.t) ->
        last := None;
        if eng.stats.concrete_instret <> !instret then begin
          instret := eng.stats.concrete_instret;
          max_constraints := max !max_constraints (List.length s.constraints)
        end;
        if eng.stats.forks <> !sampled_forks then begin
          sampled_forks := eng.stats.forks;
          let fp = List.fold_left (fun acc s -> acc + full_footprint s) 0 eng.live in
          watermark := max !watermark fp
        end
  in
  let engine = ref None in
  let setup (eng : Executor.t) =
    engine := Some eng;
    let dfs = eng.searcher and reference = reference_dfs () in
    eng.searcher <-
      {
        Searcher.add =
          (fun s ->
            dfs.add s;
            reference.add s);
        remove =
          (fun s ->
            dfs.remove s;
            reference.remove s);
        select =
          (fun () ->
            observe eng;
            let picked = dfs.select () in
            let expected = reference.select () in
            (match picked, expected with
            | Some a, Some b when a == b -> ()
            | None, None -> ()
            | _ ->
                Alcotest.failf "selection %d differs from the reference searcher"
                  !selections);
            incr selections;
            last := picked;
            picked);
        size = dfs.size;
      }
  in
  M.reset ();
  let r =
    Ddt.run ~max_seconds:120.0 ~max_instructions:300_000 ~setup ~driver:"pcnet"
      ~consistency:Consistency.LC ()
  in
  let eng = Option.get !engine in
  observe eng;
  Alcotest.(check bool) "instruction budget reached" true
    (r.Ddt.instructions > 300_000);
  Alcotest.(check bool)
    (Printf.sprintf "many forks (%d) and selections (%d)" eng.stats.forks !selections)
    true
    (eng.stats.forks > 100 && !selections > 1000);
  Alcotest.(check int) "footprint watermark = full folds" !watermark
    eng.stats.footprint_watermark;
  Alcotest.(check int) "max constraint set = full lengths" !max_constraints
    (M.get_int (M.snapshot ()) "engine.max_constraint_set")

(* --- CLI manuals render --- *)

(* Every subcommand's manual must render: cmdliner parses doc strings
   only at --help time, so a malformed escape passes the build and fails
   the user. *)
let test_cli_help_renders () =
  let cli =
    Filename.concat (Filename.dirname Sys.executable_name) "../bin/s2e_cli.exe"
  in
  let err = Filename.temp_file "s2e_help" ".err" in
  Fun.protect
    ~finally:(fun () -> Sys.remove err)
    (fun () ->
      List.iter
        (fun sub ->
          let rc =
            Sys.command
              (Printf.sprintf "%s %s --help=plain > /dev/null 2> %s"
                 (Filename.quote cli) sub (Filename.quote err))
          in
          Alcotest.(check int) (sub ^ " --help exits 0") 0 rc;
          Alcotest.(check string)
            (sub ^ " --help: nothing on stderr (no cmdliner error)") ""
            (In_channel.with_open_bin err In_channel.input_all))
        [ "run"; "ddt"; "rev"; "profs"; "models"; "explore"; "serve";
          "worker"; "stats"; "trace"; "oracle" ])

let tests =
  [
    Alcotest.test_case "DDT+ finds 2 bugs under SC-SE" `Slow test_ddt_scse;
    Alcotest.test_case "DDT+ finds 7 bugs under LC" `Slow test_ddt_lc;
    Alcotest.test_case "DDT+ reports nothing on clean drivers" `Slow
      test_ddt_no_bugs_in_clean_drivers;
    Alcotest.test_case "REV+ beats RevNIC baseline" `Slow test_rev_beats_baseline;
    Alcotest.test_case "REV+ synthesizes a driver" `Slow test_rev_synthesis;
    Alcotest.test_case "PROFS: URL cost linear in slashes" `Slow
      test_profs_url_linear_in_slashes;
    Alcotest.test_case "PROFS: ping infinite loop" `Slow
      test_profs_ping_finds_infinite_loop;
    Alcotest.test_case "PROFS: ping envelope after patch" `Slow
      test_profs_ping_envelope_after_patch;
    Alcotest.test_case "models: driver coverage ordering" `Slow
      test_models_driver_coverage_ordering;
    Alcotest.test_case "models: mua LC beats SC-SE" `Slow test_models_mua;
    Alcotest.test_case "DDT+ pcnet: per-branch fixed costs stay cut" `Quick
      test_ddt_pcnet_fixed_costs;
    Alcotest.test_case "DDT+ pcnet: bookkeeping = full recomputation" `Slow
      test_ddt_pcnet_bookkeeping_matches_full_folds;
    Alcotest.test_case "DFS pick = filter-then-head" `Quick
      test_dfs_matches_filter_then_head;
    Alcotest.test_case "CLI: every subcommand's --help renders" `Quick
      test_cli_help_renders;
  ]
