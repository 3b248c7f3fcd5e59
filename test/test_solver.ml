(* Tests for the SAT core, the bit-blaster and the high-level solver. *)

open S2e_expr
open S2e_solver
module Obs = S2e_obs

let test_sat_basic () =
  let s = Sat.create () in
  let a = Sat.new_var s and b = Sat.new_var s in
  Sat.add_clause s [ Sat.pos a; Sat.pos b ];
  Sat.add_clause s [ Sat.neg a ];
  (match Sat.solve s with
  | Sat.Sat ->
      assert (not (Sat.model_value s a));
      assert (Sat.model_value s b)
  | _ -> Alcotest.fail "expected sat");
  Sat.add_clause s [ Sat.neg b ];
  (match Sat.solve s with
  | Sat.Unsat -> ()
  | _ -> Alcotest.fail "expected unsat")

let test_sat_pigeonhole () =
  (* 3 pigeons, 2 holes: classic small unsat instance exercising learning. *)
  let s = Sat.create () in
  let v = Array.init 3 (fun _ -> Array.init 2 (fun _ -> Sat.new_var s)) in
  for p = 0 to 2 do
    Sat.add_clause s [ Sat.pos v.(p).(0); Sat.pos v.(p).(1) ]
  done;
  for h = 0 to 1 do
    for p1 = 0 to 2 do
      for p2 = p1 + 1 to 2 do
        Sat.add_clause s [ Sat.neg v.(p1).(h); Sat.neg v.(p2).(h) ]
      done
    done
  done;
  match Sat.solve s with
  | Sat.Unsat -> ()
  | _ -> Alcotest.fail "pigeonhole should be unsat"

let x32 () = Expr.fresh_var ~width:32 "x"

let test_solver_simple () =
  let x = x32 () in
  (* x + 1 = 10 *)
  let c = Expr.eq (Expr.add x (Expr.const 1L)) (Expr.const 10L) in
  match Solver.check [ c ] with
  | Solver.Sat m -> Alcotest.(check int64) "x" 9L (Expr.eval m x)
  | _ -> Alcotest.fail "expected sat"

let test_solver_unsat () =
  let x = x32 () in
  let c1 = Expr.ult x (Expr.const 5L) in
  let c2 = Expr.ult (Expr.const 10L) x in
  match Solver.check [ c1; c2 ] with
  | Solver.Unsat -> ()
  | _ -> Alcotest.fail "expected unsat"

let test_solver_mul () =
  let x = x32 () in
  let c = Expr.eq (Expr.mul x (Expr.const 6L)) (Expr.const 42L) in
  match Solver.check [ c ] with
  | Solver.Sat m ->
      let v = Expr.eval m x in
      Alcotest.(check int64) "6x=42" 42L
        (Int64.logand (Int64.mul v 6L) 0xFFFFFFFFL)
  | _ -> Alcotest.fail "expected sat"

let test_solver_div () =
  let x = Expr.fresh_var ~width:8 "d" in
  let c = Expr.eq (Expr.udiv (Expr.const ~width:8 100L) x) (Expr.const ~width:8 7L) in
  match Solver.check [ c ] with
  | Solver.Sat m ->
      let v = Expr.eval m x in
      Alcotest.(check int64) "100/x=7" 7L (Int64.unsigned_div 100L v)
  | _ -> Alcotest.fail "expected sat"

let test_solver_signed () =
  let x = x32 () in
  let c1 = Expr.slt x (Expr.const 0L) in
  let c2 = Expr.slt (Expr.const (-10L)) x in
  match Solver.check [ c1; c2 ] with
  | Solver.Sat m ->
      let v = Expr.sext64 (Expr.eval m x) 32 in
      assert (v < 0L && v > -10L)
  | _ -> Alcotest.fail "expected sat"

let test_solver_shift () =
  let x = Expr.fresh_var ~width:8 "s" in
  (* (1 << x) = 16  ==> x = 4 *)
  let c = Expr.eq (Expr.shl (Expr.const ~width:8 1L) x) (Expr.const ~width:8 16L) in
  match Solver.check [ c ] with
  | Solver.Sat m -> Alcotest.(check int64) "x" 4L (Int64.logand (Expr.eval m x) 7L)
  | _ -> Alcotest.fail "expected sat"

let test_get_values () =
  let x = Expr.fresh_var ~width:8 "v" in
  let c = Expr.ult x (Expr.const ~width:8 3L) in
  let vs = Solver.get_values ~constraints:[ c ] ~limit:10 x in
  Alcotest.(check int) "3 values" 3 (List.length vs);
  List.iter (fun v -> assert (Int64.unsigned_compare v 3L < 0)) vs

let test_get_unique () =
  let x = x32 () in
  let c = Expr.eq x (Expr.const 77L) in
  (match Solver.get_unique_value ~constraints:[ c ] x with
  | Some 77L -> ()
  | _ -> Alcotest.fail "expected unique 77");
  let c2 = Expr.ult x (Expr.const 100L) in
  match Solver.get_unique_value ~constraints:[ c2 ] x with
  | None -> ()
  | Some _ -> Alcotest.fail "not unique"

let test_slicing () =
  (* Unrelated constraints must not affect the query result. *)
  let x = x32 () and y = x32 () in
  let cx = Expr.eq x (Expr.const 1L) in
  let cy = Expr.ult y (Expr.const 50L) in
  let sliced = Solver.slice ~seed_vars:(Expr.vars x) [ cx; cy ] in
  Alcotest.(check int) "only x constraint kept" 1 (List.length sliced)

(* The fixpoint slice the order-preserving one replaced: same closure,
   members emitted in discovery order.  Kept as the reference for the
   member-set half of the property below. *)
let ref_slice ~seed_vars constraints =
  let remaining = ref constraints and relevant = ref [] in
  let frontier = ref seed_vars and changed = ref true in
  while !changed do
    let keep, rest =
      List.partition
        (fun c -> not (Expr.Int_set.disjoint (Expr.vars c) !frontier))
        !remaining
    in
    changed := keep <> [];
    List.iter
      (fun c ->
        relevant := c :: !relevant;
        frontier := Expr.Int_set.union !frontier (Expr.vars c))
      keep;
    remaining := rest
  done;
  !relevant

let rec is_subsequence sub l =
  match (sub, l) with
  | [], _ -> true
  | _, [] -> false
  | x :: sub', y :: l' ->
      if x == y then is_subsequence sub' l' else is_subsequence sub l'

(* Random 8-bit constraint over 0-2 variables of a small pool (a constant
   comparison folds to a variable-free constraint, which no slice keeps). *)
let slice_pool = Array.init 6 (fun i -> Expr.fresh_var ~width:8 (Printf.sprintf "sl%d" i))

let gen_slice_constraint =
  QCheck2.Gen.(
    map
      (fun (a, b, k, shape) ->
        let k = Expr.const ~width:8 (Int64.of_int k) in
        match shape with
        | 0 -> Expr.ult slice_pool.(a) k
        | 1 -> Expr.eq (Expr.add slice_pool.(a) slice_pool.(b)) k
        | 2 -> Expr.ne slice_pool.(a) slice_pool.(b)
        | _ -> Expr.ule k k)
      (quad (int_bound 5) (int_bound 5) (int_bound 255) (int_bound 3)))

(* Property: [slice] keeps the path order of its input (a subsequence, so
   the incremental strategy's oldest-first assumption stacks share their
   bottom frames) and selects exactly the members of the old fixpoint. *)
let prop_slice_order_preserving =
  QCheck2.Test.make ~count:300 ~name:"slice: order-preserving, same members"
    QCheck2.Gen.(pair (int_bound 5) (list_size (int_bound 24) gen_slice_constraint))
    (fun (seed, cs) ->
      let seed_vars = Expr.vars slice_pool.(seed) in
      let sliced = Solver.slice ~seed_vars cs in
      let ids l = List.sort compare (List.map Expr.node_id l) in
      is_subsequence sliced cs && ids sliced = ids (ref_slice ~seed_vars cs))

(* A cold solve with no front end at all: one throwaway SAT instance over
   the raw constraint list — no simplification, caches or contradiction
   check. *)
let cold_verdict cs =
  let sat = Sat.create () in
  let bctx = Bitblast.create sat in
  List.iter (Bitblast.assert_true bctx) cs;
  Sat.solve sat

(* Property: the syntactic-contradiction answer never says Unsat where a
   cold solve finds Sat.  Random sets over 8-bit variables; about half
   carry the head's negation somewhere in the tail, so the shortcut fires
   (checked: the test must not pass vacuously). *)
let test_contradiction_sound () =
  let rng = Random.State.make [| 0xC0DE; 13 |] in
  let xs = Array.init 3 (fun i -> Expr.fresh_var ~width:8 (Printf.sprintf "ct%d" i)) in
  let atom () =
    let x = xs.(Random.State.int rng 3) and y = xs.(Random.State.int rng 3) in
    let k = Expr.const ~width:8 (Int64.of_int (Random.State.int rng 256)) in
    match Random.State.int rng 5 with
    | 0 -> Expr.ult x k
    | 1 -> Expr.ult x (Expr.band y (Expr.const ~width:8 0x3fL))
    | 2 -> Expr.eq (Expr.add x y) k
    | 3 -> Expr.ne x k
    | _ -> Expr.ule k (Expr.bxor x y)
  in
  let fired_total = ref 0 in
  let ctx = Solver.create_ctx ~mode:Solver.Incremental () in
  for _ = 1 to 300 do
    let head = atom () in
    let tail = List.init (Random.State.int rng 5) (fun _ -> atom ()) in
    let tail =
      if Random.State.bool rng then
        let i = Random.State.int rng (List.length tail + 1) in
        List.filteri (fun j _ -> j < i) tail
        @ (Expr.log_not head :: List.filteri (fun j _ -> j >= i) tail)
      else tail
    in
    let cs = head :: tail in
    let before = Obs.Metrics.get_int (Obs.Metrics.snapshot ()) "solver.contradictions" in
    let r = Solver.check ~ctx cs in
    let fired =
      Obs.Metrics.get_int (Obs.Metrics.snapshot ()) "solver.contradictions" > before
    in
    if fired then begin
      incr fired_total;
      Alcotest.(check bool) "contradiction answers unsat" true (r = Solver.Unsat);
      Alcotest.(check bool) "cold solve agrees" true (cold_verdict cs <> Sat.Sat)
    end
  done;
  Alcotest.(check bool) "contradiction path exercised" true (!fired_total > 50)

(* Property: every model returned by the solver satisfies the constraints. *)
let prop_models_satisfy =
  QCheck2.Test.make ~count:60 ~name:"solver models satisfy constraints"
    QCheck2.Gen.(
      quad (int_bound 255) (int_bound 255) (int_bound 3) (int_bound 3))
    (fun (a, b, op1, op2) ->
      let x = Expr.fresh_var ~width:8 "qx" in
      let mk op c =
        let c = Expr.const ~width:8 (Int64.of_int c) in
        match op with
        | 0 -> Expr.ult x c
        | 1 -> Expr.ule c x
        | 2 -> Expr.eq (Expr.band x (Expr.const ~width:8 0x0fL)) (Expr.band c (Expr.const ~width:8 0x0fL))
        | _ -> Expr.ne x c
      in
      let cs = [ mk op1 a; mk op2 b ] in
      match Solver.check cs with
      | Solver.Sat m -> List.for_all (fun c -> Expr.eval m c = 1L) cs
      | Solver.Unsat ->
          (* Cross-check against brute force over the 8-bit domain. *)
          let xid = match x with Expr.Var { id; _ } -> id | _ -> assert false in
          let exists = ref false in
          for v = 0 to 255 do
            let m = Expr.Int_map.singleton xid (Int64.of_int v) in
            if List.for_all (fun c -> Expr.eval m c = 1L) cs then exists := true
          done;
          not !exists
      | Solver.Unknown -> true)

(* Property: solver agrees with brute force on arbitrary 8-bit formulas. *)
let prop_solver_vs_brute =
  QCheck2.Test.make ~count:40 ~name:"solver agrees with brute force"
    QCheck2.Gen.(triple (int_bound 255) (int_bound 7) (int_bound 255))
    (fun (k, shift, m8) ->
      let x = Expr.fresh_var ~width:8 "bx" in
      let lhs =
        Expr.bxor
          (Expr.shl x (Expr.const ~width:8 (Int64.of_int shift)))
          (Expr.const ~width:8 (Int64.of_int m8))
      in
      let c = Expr.eq lhs (Expr.const ~width:8 (Int64.of_int k)) in
      let xid = match x with Expr.Var { id; _ } -> id | _ -> assert false in
      let brute = ref false in
      for v = 0 to 255 do
        let m = Expr.Int_map.singleton xid (Int64.of_int v) in
        if Expr.eval m c = 1L then brute := true
      done;
      match Solver.check [ c ] with
      | Solver.Sat _ -> !brute
      | Solver.Unsat -> not !brute
      | Solver.Unknown -> true)

(* --- solver-context / cache soundness ------------------------------- *)

let verdict_tag = function
  | Solver.Sat _ -> "sat"
  | Solver.Unsat -> "unsat"
  | Solver.Unknown -> "unknown"

(* Randomized overlapping query sequences on one warm context: cache hits
   (model cache and unsat cache) must never flip a verdict relative to a
   cold context.  Queries deliberately repeat and share sub-conjunctions
   so the caches actually fire. *)
let test_cache_soundness () =
  let rng = Random.State.make [| 0xCAC4E; 7 |] in
  let xs = Array.init 3 (fun i -> Expr.fresh_var ~width:8 (Printf.sprintf "cs%d" i)) in
  let pool =
    (* A mix of satisfiable, contradictory and overlapping constraints. *)
    [
      Expr.ult xs.(0) (Expr.const ~width:8 10L);
      Expr.ult (Expr.const ~width:8 20L) xs.(0);
      Expr.eq xs.(1) (Expr.add xs.(0) (Expr.const ~width:8 1L));
      Expr.eq (Expr.band xs.(2) (Expr.const ~width:8 3L)) (Expr.const ~width:8 2L);
      Expr.ne xs.(2) xs.(1);
      Expr.ule xs.(1) (Expr.const ~width:8 200L);
      Expr.eq xs.(0) (Expr.const ~width:8 5L);
    ]
  in
  let pool = Array.of_list pool in
  let warm = Solver.create_ctx () in
  for _ = 1 to 60 do
    let n = 1 + Random.State.int rng 4 in
    let cs =
      List.init n (fun _ -> pool.(Random.State.int rng (Array.length pool)))
    in
    let w = Solver.check ~ctx:warm cs in
    let c = Solver.check ~ctx:(Solver.create_ctx ()) cs in
    Alcotest.(check string)
      "warm verdict = cold verdict" (verdict_tag c) (verdict_tag w);
    (* Any Sat model — cached or fresh — must actually satisfy. *)
    match w with
    | Solver.Sat m ->
        List.iter (fun cst -> Alcotest.(check int64) "model satisfies" 1L (Expr.eval m cst)) cs
    | _ -> ()
  done;
  (* The sequence above repeats queries: the warm context must have hits,
     otherwise this test exercises nothing. *)
  Alcotest.(check bool) "warm cache was exercised" true
    (warm.Solver.ctx_stats.Solver.cache_hits > 0)

(* Contexts are isolated: queries on one leave another (and the default)
   untouched, and reset/clear act per-context. *)
let test_ctx_isolation () =
  let a = Solver.create_ctx () and b = Solver.create_ctx () in
  Alcotest.(check int) "fresh ctx starts at zero" 0 a.Solver.ctx_stats.Solver.queries;
  let x = Expr.fresh_var ~width:8 "iso" in
  let c = Expr.ult x (Expr.const ~width:8 4L) in
  let default_before = Solver.stats.Solver.queries in
  (match Solver.check ~ctx:a [ c ] with
  | Solver.Sat _ -> ()
  | _ -> Alcotest.fail "expected sat");
  Alcotest.(check int) "ctx a counted its query" 1 a.Solver.ctx_stats.Solver.queries;
  Alcotest.(check int) "ctx b untouched" 0 b.Solver.ctx_stats.Solver.queries;
  Alcotest.(check int) "default ctx untouched" default_before Solver.stats.Solver.queries;
  Alcotest.(check bool) "ctx a cached a model" true (Solver.models a <> []);
  Alcotest.(check bool) "ctx b cache empty" true (Solver.models b = []);
  Solver.reset_stats ~ctx:a ();
  Alcotest.(check int) "reset zeroes only ctx a" 0 a.Solver.ctx_stats.Solver.queries;
  Solver.clear_caches a;
  Alcotest.(check bool) "clear_caches empties model cache" true (Solver.models a = []);
  Alcotest.(check int) "clear_caches keeps unsat cache empty too" 0
    (Hashtbl.length a.Solver.unsat_cache)

(* Concretization picks bypass the model cache, so a warm context returns
   the same value as a cold one regardless of query history. *)
let test_get_value_warm_vs_cold () =
  let x = Expr.fresh_var ~width:8 "gv" in
  let cs = [ Expr.ult x (Expr.const ~width:8 100L) ] in
  let warm = Solver.create_ctx () in
  (* Pollute the warm cache with models from different constraint sets. *)
  ignore (Solver.check ~ctx:warm [ Expr.eq x (Expr.const ~width:8 42L) ]);
  ignore (Solver.check ~ctx:warm [ Expr.ult (Expr.const ~width:8 50L) x ]);
  let vw = Solver.get_value ~ctx:warm ~constraints:cs x in
  let vc = Solver.get_value ~ctx:(Solver.create_ctx ()) ~constraints:cs x in
  (match (vw, vc) with
  | Some a, Some b -> Alcotest.(check int64) "warm pick = cold pick" b a
  | _ -> Alcotest.fail "expected values");
  let vsw = Solver.get_values ~ctx:warm ~constraints:cs ~limit:5 x in
  let vsc = Solver.get_values ~ctx:(Solver.create_ctx ()) ~constraints:cs ~limit:5 x in
  Alcotest.(check (list int64)) "get_values history-independent" vsc vsw

(* --- incremental assumption stack ----------------------------------- *)

let with_mode mode f =
  let saved = !Solver.default_mode in
  Solver.set_default_mode mode;
  Fun.protect ~finally:(fun () -> Solver.set_default_mode saved) f

let result_tag = function
  | Sat.Sat -> "sat"
  | Sat.Unsat -> "unsat"
  | Sat.Unknown -> "unknown"

(* Property: a long-lived instance driven through a random push /
   solve_assuming / pop script answers exactly like a throwaway solver
   handed the same clauses plus the stacked assumptions as units, and
   every Sat model satisfies all clauses and currently-live
   assumptions.  This is the soundness contract that lets the solver
   retain learned clauses across pops. *)
let test_sat_incremental_vs_fresh () =
  let rng = Random.State.make [| 0x51AC; 11 |] in
  for _round = 1 to 25 do
    let nvars = 5 + Random.State.int rng 7 in
    let inc = Sat.create () in
    for _ = 1 to nvars do
      ignore (Sat.new_var inc)
    done;
    let rand_lit () =
      let v = Random.State.int rng nvars in
      if Random.State.bool rng then Sat.pos v else Sat.neg v
    in
    let nclauses = 8 + Random.State.int rng 16 in
    let clauses =
      List.init nclauses (fun _ ->
          List.init (1 + Random.State.int rng 3) (fun _ -> rand_lit ()))
    in
    List.iter (Sat.add_clause inc) clauses;
    let stack = ref [] in
    for _step = 1 to 10 do
      (if !stack = [] || Random.State.bool rng then begin
         let l = rand_lit () in
         Sat.push inc;
         Sat.assume inc l;
         stack := l :: !stack
       end
       else begin
         Sat.pop inc;
         stack := List.tl !stack
       end);
      let extra = if Random.State.bool rng then [ rand_lit () ] else [] in
      let fresh = Sat.create () in
      for _ = 1 to nvars do
        ignore (Sat.new_var fresh)
      done;
      List.iter (Sat.add_clause fresh) clauses;
      List.iter (fun l -> Sat.add_clause fresh [ l ]) (!stack @ extra);
      let ri = Sat.solve_assuming inc extra in
      let rf = Sat.solve fresh in
      Alcotest.(check string)
        "incremental verdict = fresh verdict" (result_tag rf) (result_tag ri);
      match ri with
      | Sat.Sat ->
          let lit_true l =
            Sat.model_value inc (Sat.lit_var l) = Sat.lit_sign l
          in
          List.iter
            (fun c ->
              Alcotest.(check bool)
                "model satisfies" true
                (List.exists lit_true c))
            (clauses @ List.map (fun l -> [ l ]) (!stack @ extra))
      | _ -> ()
    done;
    Alcotest.(check int) "frame bookkeeping" (List.length !stack)
      (Sat.frames inc)
  done

(* A persistent bit-blast context must map structurally equal expression
   nodes to the identical SAT literal — across separate calls and across
   a push/solve/pop cycle — or prefix matching on a live instance would
   silently re-encode (and re-constrain) nothing-new terms. *)
let test_bitblast_literal_stable () =
  let sat = Sat.create () in
  let bctx = Bitblast.create sat in
  let x = Expr.fresh_var ~width:8 "bl" in
  let mk () =
    Expr.ult (Expr.add x (Expr.const ~width:8 3L)) (Expr.const ~width:8 10L)
  in
  let l1 = Bitblast.literal bctx (mk ()) in
  let l2 = Bitblast.literal bctx (mk ()) in
  Alcotest.(check int) "structurally equal nodes share a literal" l1 l2;
  Sat.push sat;
  Sat.assume sat l1;
  (match Sat.solve sat with
  | Sat.Sat -> ()
  | _ -> Alcotest.fail "expected sat under assumption");
  Sat.pop sat;
  let l3 = Bitblast.literal bctx (mk ()) in
  Alcotest.(check int) "literal stable across push/solve/pop" l1 l3;
  let other = Expr.ult x (Expr.const ~width:8 9L) in
  Alcotest.(check bool) "distinct nodes get distinct literals" true
    (Bitblast.literal bctx other <> l1)

(* Search identity: the SAT core's data structures may change, its search
   may not.  A seeded stream of random 3-SAT instances near the threshold
   (40-120 variables, clause ratio 3.8-4.5) runs through solve, push/
   assume/solve_assuming/pop rounds and clauses added between rounds;
   two larger instances push the learned-clause database past its limit
   so reduce_db runs.  Every call's result, cumulative counters and model
   bits are folded into one digest.  Returns the digest, the total
   conflicts and, per large instance, whether reduction dropped clauses. *)
let sat_search_trace () =
  let x = ref 0x5EED_2011 in
  let rand n =
    x := !x lxor (!x lsl 13);
    x := !x lxor (!x lsr 7);
    x := !x lxor (!x lsl 17);
    (!x land max_int) mod n
  in
  let buf = Buffer.create 4096 in
  let conflicts = ref 0 in
  let record s r nv =
    let st = Sat.stats s in
    Buffer.add_string buf
      (Printf.sprintf "%c%d,%d,%d,%d,%d,%d;"
         (match r with Sat.Sat -> 'S' | Sat.Unsat -> 'U' | Sat.Unknown -> '?')
         st.Sat.conflicts st.decisions st.propagations st.restarts st.learned
         st.learned_kept);
    if r = Sat.Sat then
      for v = 0 to nv - 1 do
        Buffer.add_char buf (if Sat.model_value s v then '1' else '0')
      done
  in
  let instance nv ratio_pct =
    let s = Sat.create () in
    for _ = 1 to nv do
      ignore (Sat.new_var s)
    done;
    let lit () =
      let v = rand nv in
      if rand 2 = 0 then Sat.pos v else Sat.neg v
    in
    let clause () =
      let a = rand nv in
      let rec other avoid =
        let v = rand nv in
        if List.mem v avoid then other avoid else v
      in
      let b = other [ a ] in
      let c = other [ a; b ] in
      List.map
        (fun v -> if rand 2 = 0 then Sat.pos v else Sat.neg v)
        [ a; b; c ]
    in
    let m = nv * ratio_pct / 100 in
    let upfront = m * 7 / 10 in
    for _ = 1 to upfront do
      Sat.add_clause s (clause ())
    done;
    record s (Sat.solve s) nv;
    let rest = ref (m - upfront) in
    for round = 1 to 6 do
      Sat.push s;
      for _ = 0 to rand 3 do
        Sat.assume s (lit ())
      done;
      if round mod 2 = 0 then begin
        Sat.push s;
        Sat.assume s (lit ())
      end;
      let extra = List.init (1 + rand 2) (fun _ -> lit ()) in
      record s (Sat.solve_assuming s extra) nv;
      record s (Sat.solve s) nv;
      (* Clauses added while frames are open: add_clause backtracks to
         level 0 and the next solve re-decides the assumptions. *)
      let k = min !rest ((!rest / (7 - round)) + rand 2) in
      for _ = 1 to k do
        Sat.add_clause s (clause ())
      done;
      rest := !rest - k;
      record s (Sat.solve_assuming s [ lit () ]) nv;
      while Sat.frames s > 0 do
        Sat.pop s
      done
    done;
    record s (Sat.solve s) nv;
    let st = Sat.stats s in
    conflicts := !conflicts + st.Sat.conflicts;
    st.Sat.learned_kept < st.Sat.learned
  in
  for _ = 1 to 200 do
    ignore (instance (40 + rand 81) (380 + rand 71))
  done;
  let reduced = List.map (fun nv -> instance nv 426) [ 160; 180 ] in
  (Digest.to_hex (Digest.string (Buffer.contents buf)), !conflicts, reduced)

(* The digest was recorded with the SAT core of commit 03d397b (cons-list
   watches, allocating add_clause, scanning pick_branch).  Any change to
   the search — visit order, decision order, learned-clause choice —
   changes it. *)
let test_sat_search_identity () =
  let digest, conflicts, reduced = sat_search_trace () in
  Alcotest.(check bool) "enough conflicts to cover learning" true
    (conflicts > 10_000);
  Alcotest.(check (list bool)) "reduce_db dropped clauses on both large"
    [ true; true ] reduced;
  Alcotest.(check string) "search digest" "ec54ff127959f2c4b9fa5c500100237d"
    digest

(* Whole-engine differential: every solver mode must explore the same
   tree and emit byte-identical sorted case sets, serially and with
   domain-parallel workers (each worker gets a private instance ring, so
   jobs > 1 exercises ring isolation). *)
let explore_cases mode jobs =
  with_mode mode (fun () ->
      let r =
        S2e_core.Parallel.explore ~jobs
          ~limits:
            {
              S2e_core.Executor.max_instructions = None;
              max_seconds = Some 60.;
              max_completed = None;
            }
          ~make_engine:(Test_dist.make_engine_for Test_dist.workload_32)
          ~boot:(fun eng -> S2e_core.Executor.boot eng ~entry:0x1000 ())
          ()
      in
      List.map
        (fun s ->
          S2e_core.Parallel.test_case_to_string
            (S2e_core.Parallel.test_case s))
        r.S2e_core.Parallel.completed
      |> List.sort compare)

let test_mode_differential () =
  let fresh = explore_cases Solver.Fresh 1 in
  Alcotest.(check int) "32 paths" 32 (List.length fresh);
  Alcotest.(check (list string))
    "incremental serial = fresh" fresh
    (explore_cases Solver.Incremental 1);
  Alcotest.(check (list string))
    "incremental jobs=4 = fresh" fresh
    (explore_cases Solver.Incremental 4);
  Alcotest.(check (list string))
    "portfolio serial = fresh" fresh
    (explore_cases Solver.Portfolio 1)

let tests =
  [
    Alcotest.test_case "sat basic" `Quick test_sat_basic;
    Alcotest.test_case "sat pigeonhole (learning)" `Quick test_sat_pigeonhole;
    Alcotest.test_case "sat search identity digest" `Quick
      test_sat_search_identity;
    Alcotest.test_case "solver linear" `Quick test_solver_simple;
    Alcotest.test_case "solver unsat interval" `Quick test_solver_unsat;
    Alcotest.test_case "solver multiplication" `Quick test_solver_mul;
    Alcotest.test_case "solver division" `Quick test_solver_div;
    Alcotest.test_case "solver signed compare" `Quick test_solver_signed;
    Alcotest.test_case "solver symbolic shift" `Quick test_solver_shift;
    Alcotest.test_case "get_values enumerates" `Quick test_get_values;
    Alcotest.test_case "get_unique_value" `Quick test_get_unique;
    Alcotest.test_case "independent slicing" `Quick test_slicing;
    Alcotest.test_case "cache soundness (warm vs cold verdicts)" `Quick
      test_cache_soundness;
    Alcotest.test_case "solver context isolation" `Quick test_ctx_isolation;
    Alcotest.test_case "get_value warm vs cold" `Quick
      test_get_value_warm_vs_cold;
    Alcotest.test_case "incremental push/pop answers like fresh" `Quick
      test_sat_incremental_vs_fresh;
    Alcotest.test_case "bitblast literals stable in a context" `Quick
      test_bitblast_literal_stable;
    Alcotest.test_case "solver modes explore identical case sets" `Quick
      test_mode_differential;
    QCheck_alcotest.to_alcotest prop_models_satisfy;
    QCheck_alcotest.to_alcotest prop_solver_vs_brute;
    QCheck_alcotest.to_alcotest prop_slice_order_preserving;
    Alcotest.test_case "contradiction shortcut is sound" `Quick
      test_contradiction_sound;
  ]
