(* Property-based differential testing of the bitfield-theory simplifier
   (paper section 5): for randomly generated expression trees, the
   simplified expression must evaluate identically to the original under
   random concrete models.  The smart constructors get the same treatment
   for free, since generation goes through them.

   Hand-rolled seeded generation (rather than qcheck shrinking) keeps the
   trees well-width-formed: operand widths must agree, and
   extract/concat/extension nodes need coherent width bookkeeping. *)

open S2e_expr

let widths = [ 1; 8; 16; 32 ]
let trees_per_width = 500
let models_per_tree = 3
let vars_per_width = 3

(* One variable pool shared by all trees so different trees exercise
   common subexpressions; fresh ids keep them distinct from other tests. *)
let var_pool =
  List.map
    (fun w ->
      (w, Array.init vars_per_width (fun i -> Expr.fresh_var ~width:w (Printf.sprintf "p%d_%d" w i))))
    widths

let vars_of_width w = List.assoc w var_pool

let random_value rng w =
  (* Mix small values (likely to trigger special cases: 0, 1, all-ones)
     with uniform bits. *)
  match Random.State.int rng 4 with
  | 0 -> 0L
  | 1 -> 1L
  | 2 -> Expr.mask w
  | _ -> Expr.norm (Random.State.int64 rng Int64.max_int) w

let choose rng l = List.nth l (Random.State.int rng (List.length l))

let binops =
  Expr.[ Add; Sub; Mul; Udiv; Urem; And; Or; Xor; Shl; Lshr; Ashr ]

let cmpops = Expr.[ Eq; Ult; Ule; Slt; Sle ]

(* Generate a random expression of exactly [w] bits. *)
let rec gen rng w depth =
  if depth = 0 then leaf rng w
  else
    match Random.State.int rng 10 with
    | 0 -> leaf rng w
    | 1 -> Expr.unop (choose rng Expr.[ Neg; Bnot ]) (gen rng w (depth - 1))
    | 2 | 3 | 4 ->
        Expr.binop (choose rng binops) (gen rng w (depth - 1))
          (gen rng w (depth - 1))
    | 5 ->
        Expr.ite (gen rng 1 (depth - 1)) (gen rng w (depth - 1))
          (gen rng w (depth - 1))
    | 6 ->
        (* extract a w-bit field out of a wider expression *)
        let wider = List.filter (fun w' -> w' > w) widths in
        if wider = [] then leaf rng w
        else
          let wa = choose rng wider in
          let lo = Random.State.int rng (wa - w + 1) in
          Expr.extract ~hi:(lo + w - 1) ~lo (gen rng wa (depth - 1))
    | 7 ->
        (* concat two halves when w splits into supported widths *)
        let splits =
          List.filter_map
            (fun wh -> if List.mem (w - wh) widths then Some wh else None)
            widths
        in
        if splits = [] then leaf rng w
        else
          let wh = choose rng splits in
          Expr.concat
            ~high:(gen rng wh (depth - 1))
            ~low:(gen rng (w - wh) (depth - 1))
    | 8 ->
        let narrower = List.filter (fun w' -> w' < w) widths in
        if narrower = [] then leaf rng w
        else
          let wa = choose rng narrower in
          let ext = if Random.State.bool rng then Expr.zext else Expr.sext in
          ext ~width:w (gen rng wa (depth - 1))
    | _ ->
        if w = 1 then
          let wa = choose rng widths in
          Expr.cmp (choose rng cmpops) (gen rng wa (depth - 1))
            (gen rng wa (depth - 1))
        else
          Expr.binop (choose rng binops) (gen rng w (depth - 1))
            (gen rng w (depth - 1))

and leaf rng w =
  if Random.State.bool rng then Expr.const ~width:w (random_value rng w)
  else (vars_of_width w).(Random.State.int rng vars_per_width)

let random_model rng e =
  Expr.fold_vars
    (fun m id _name width -> Expr.Int_map.add id (random_value rng width) m)
    Expr.Int_map.empty e

let check_tree rng w e =
  let simplified = Simplifier.simplify e in
  for _ = 1 to models_per_tree do
    let m = random_model rng e in
    let expect = Expr.eval m e in
    let got = Expr.eval m simplified in
    if expect <> got then
      Alcotest.failf
        "simplify changed semantics (width %d):@.  original: %s@.  \
         simplified: %s@.  model: {%s}@.  original=%Ld simplified=%Ld"
        w (Expr.to_string e)
        (Expr.to_string simplified)
        (String.concat "; "
           (List.map
              (fun (id, v) -> Printf.sprintf "v%d=%Ld" id v)
              (Expr.Int_map.bindings m)))
        expect got
  done

let test_simplifier_differential () =
  let rng = Random.State.make [| 0x5E2E; 2025 |] in
  List.iter
    (fun w ->
      for _ = 1 to trees_per_width do
        let depth = 1 + Random.State.int rng 5 in
        check_tree rng w (gen rng w depth)
      done)
    widths

(* The simplifier must also be idempotent: a second pass cannot change the
   (already canonical) result's semantics, and the tree must not grow. *)
let test_simplifier_idempotent_size () =
  let rng = Random.State.make [| 77; 1234 |] in
  List.iter
    (fun w ->
      for _ = 1 to 100 do
        let e = gen rng w 4 in
        let s1 = Simplifier.simplify e in
        let s2 = Simplifier.simplify s1 in
        for _ = 1 to models_per_tree do
          let m = random_model rng e in
          Alcotest.(check int64)
            "second pass stable" (Expr.eval m s1) (Expr.eval m s2)
        done
      done)
    widths

(* ------------------------------------------------------------------ *)
(* Merge-shaped trees                                                  *)
(* ------------------------------------------------------------------ *)

(* The ite-join of sibling states rewrites every differing register or
   memory cell to [ite (guard, vA, vB)], and repeated joins nest such
   selectors — frequently over the {e same} small set of guards, since
   siblings re-merging after a loop share fork conditions.  The property
   that makes merging sound: picking a branch per the model's guard
   valuation (the unmerged path's value) must equal evaluating the
   simplified merged cell. *)
let test_merged_ite_matches_unmerged () =
  let rng = Random.State.make [| 0x3E6; 17 |] in
  List.iter
    (fun w ->
      for _ = 1 to 200 do
        (* A small guard pool so join rounds repeat conditions and the
           same-condition collapse rules actually fire. *)
        let guards = Array.init 2 (fun _ -> gen rng 1 2) in
        let rounds = 1 + Random.State.int rng 4 in
        let cells = ref [ gen rng w 2 ] in
        let merged = ref (List.hd !cells) in
        let picks = ref [] in
        for _ = 1 to rounds do
          let g = guards.(Random.State.int rng 2) in
          let v = gen rng w 2 in
          cells := v :: !cells;
          picks := g :: !picks;
          (* join round: current merged state is side A, new sibling B *)
          merged := Expr.ite g !merged v
        done;
        let simplified = Simplifier.simplify !merged in
        for _ = 1 to models_per_tree do
          let m = random_model rng !merged in
          (* Reference: replay the joins newest-first, selecting a side
             per guard — this is the value the corresponding unmerged
             path holds.  [picks] and [cells] are both newest-first;
             guard true keeps the accumulated side, false takes the
             sibling joined that round. *)
          let rec replay picks cells =
            match (picks, cells) with
            | [], [ v0 ] -> Expr.eval m v0
            | g :: ps, v :: cs ->
                if Expr.eval m g <> 0L then replay ps cs else Expr.eval m v
            | _ -> assert false
          in
          let unmerged = replay !picks !cells in
          let got = Expr.eval m simplified in
          if got <> unmerged then
            Alcotest.failf
              "merged-then-simplified diverged from unmerged (width %d):@.  \
               merged: %s@.  simplified: %s@.  unmerged=%Ld got=%Ld"
              w
              (Expr.to_string !merged)
              (Expr.to_string simplified)
              unmerged got
        done
      done)
    widths

(* The specific rewrite rules the simplifier applies to merged cells,
   checked structurally: equal arms and constant conditions fold away
   (smart constructor), and a nested ite on the same condition — or its
   negation — collapses to the reachable arm. *)
let test_ite_collapse_rules () =
  let rng = Random.State.make [| 0xC0117; 5 |] in
  let t = Expr.const ~width:1 1L and f = Expr.const ~width:1 0L in
  for _ = 1 to 200 do
    let w = choose rng widths in
    let g = gen rng 1 3 in
    let a = gen rng w 3 and b = gen rng w 3 and c = gen rng w 3 in
    (* Smart-constructor folds. *)
    Alcotest.(check bool) "equal arms" true (Expr.ite g a a == a);
    Alcotest.(check bool) "const true cond" true (Expr.ite t a b == a);
    Alcotest.(check bool) "const false cond" true (Expr.ite f a b == b);
    (* Same-condition nesting collapses to the reachable arm. *)
    let s = Simplifier.simplify in
    let equal_after x y =
      if not (Expr.equal (s x) (s y)) then
        Alcotest.failf "no collapse:@.  %s@.  vs %s@.  -> %s@.  vs %s"
          (Expr.to_string x) (Expr.to_string y)
          (Expr.to_string (s x))
          (Expr.to_string (s y))
    in
    equal_after (Expr.ite g (Expr.ite g a b) c) (Expr.ite g a c);
    equal_after (Expr.ite g c (Expr.ite g a b)) (Expr.ite g c b);
    (* ... and through the condition's negation. *)
    equal_after (Expr.ite g (Expr.ite (Expr.log_not g) a b) c) (Expr.ite g b c);
    equal_after (Expr.ite g c (Expr.ite (Expr.log_not g) a b)) (Expr.ite g c a)
  done

(* ------------------------------------------------------------------ *)
(* Hash-consing invariants                                             *)
(* ------------------------------------------------------------------ *)

(* Same-domain interning canonicity: generating the same random tree
   twice (same seed) must yield the same physical node, and structural
   equality must coincide with physical equality across a pool of
   random trees — in both directions. *)
let test_intern_equal_iff_physical () =
  let mk seed =
    let rng = Random.State.make [| seed; 0xC0; 2026 |] in
    List.concat_map
      (fun w -> List.init 60 (fun _ -> gen rng w (1 + Random.State.int rng 5)))
      widths
  in
  let a = mk 11 and b = mk 11 in
  List.iter2
    (fun x y ->
      if not (x == y) then
        Alcotest.failf "same construction not physically equal: %s"
          (Expr.to_string x))
    a b;
  (* Cross-product over a mixed pool: equal ⇔ ==. *)
  let pool = Array.of_list (a @ mk 12) in
  Array.iter
    (fun x ->
      Array.iter
        (fun y ->
          let eq = Expr.equal x y and phys = x == y in
          if eq <> phys then
            Alcotest.failf "equal(%b) <> physical(%b) for:@.  %s@.  %s" eq phys
              (Expr.to_string x) (Expr.to_string y))
        pool)
    pool

(* The constant front cache: constants that share one direct-mapped
   slot evict each other on every construction, and major collections
   between rounds let unreferenced ones die in the weak table too.
   Structural equality must still be physical equality, a constant kept
   alive must come back as the same node whether or not it is still
   cached, and every node handed out (cache hit or fresh intern) must
   carry the hash, size and variables of the first one built. *)
let test_const_cache_collisions () =
  let slot c = Expr.hash c land (Expr.const_cache_slots - 1) in
  let small =
    List.map (fun v -> (v, 1)) [ 0L; 1L ]
    @ List.init 256 (fun v -> (Int64.of_int v, 8))
  in
  let slot_of (v, w) = slot (Expr.const ~width:w v) in
  (* Target slots: both width-1 constants' and two width-8 ones'.  Every
     group gets the small constants that land in its slot plus three
     16-, 32- and 64-bit constants found by search. *)
  let targets =
    List.sort_uniq compare (List.map slot_of [ (0L, 1); (1L, 1); (0L, 8); (255L, 8) ])
  in
  let rng = Random.State.make [| 0xCAC; 2026 |] in
  let random_bits w =
    Expr.norm
      (Int64.logxor
         (Random.State.int64 rng Int64.max_int)
         (Int64.shift_left (Random.State.int64 rng 4L) 62))
      w
  in
  let search target w =
    let rec go acc tries =
      if List.length acc = 3 || tries = 0 then acc
      else
        let v = random_bits w in
        go (if slot_of (v, w) = target then (v, w) :: acc else acc) (tries - 1)
    in
    go [] 200_000
  in
  let groups =
    List.map
      (fun target ->
        let members =
          List.filter (fun k -> slot_of k = target) small
          @ List.concat_map (search target) [ 16; 32; 64 ]
        in
        Alcotest.(check bool) "wide colliding constants found" true
          (List.length members >= 10);
        Array.of_list members)
      targets
  in
  let all_widths =
    List.sort_uniq compare
      (List.concat_map (fun g -> List.map snd (Array.to_list g)) groups)
  in
  Alcotest.(check (list int)) "collisions span every width" [ 1; 8; 16; 32; 64 ]
    all_widths;
  let first = Hashtbl.create 64 in
  let check_meta (v, w) c =
    let m = (Expr.hash c, Expr.size c, Expr.Int_set.elements (Expr.vars c)) in
    match Hashtbl.find_opt first (v, w) with
    | None -> Hashtbl.replace first (v, w) m
    | Some m0 ->
        if m <> m0 then Alcotest.failf "metadata of %Ld:%d changed" v w
  in
  let retained = ref [] in
  for _round = 1 to 25 do
    Gc.full_major ();
    List.iter
      (fun (k, c) ->
        let v, w = k in
        if not (Expr.const ~width:w v == c) then
          Alcotest.failf "live constant %Ld:%d re-interned as a new node" v w)
      !retained;
    let made =
      List.init 300 (fun _ ->
          let g = List.nth groups (Random.State.int rng (List.length groups)) in
          let ((v, w) as k) = g.(Random.State.int rng (Array.length g)) in
          let c = Expr.const ~width:w v in
          check_meta k c;
          (* Built twice in a row: the second is a cache hit. *)
          let hit = Expr.const ~width:w v in
          if not (hit == c) then Alcotest.failf "cache hit for %Ld:%d not physical" v w;
          check_meta k hit;
          (k, c))
    in
    let pool = Array.of_list (made @ !retained) in
    Array.iter
      (fun (kx, x) ->
        Array.iter
          (fun (ky, y) ->
            let eq = Expr.equal x y in
            if eq <> (x == y) || eq <> (kx = ky) then
              Alcotest.failf "equal(%b) / == (%b) / same constant (%b)" eq (x == y)
                (kx = ky))
          pool)
      pool;
    retained :=
      List.filteri (fun i _ -> i < 40)
        (List.filter (fun _ -> Random.State.bool rng) made @ !retained)
  done

(* Cached metadata must match a from-scratch recomputation by walking the
   (private but pattern-matchable) representation. *)
let rec ref_size (e : Expr.t) =
  match e with
  | Const _ | Var _ -> 1
  | Unop { arg; _ } | Extract { arg; _ } | Zext { arg; _ } | Sext { arg; _ } ->
      1 + ref_size arg
  | Binop { lhs; rhs; _ } | Cmp { lhs; rhs; _ } -> 1 + ref_size lhs + ref_size rhs
  | Ite { cond; then_; else_; _ } ->
      1 + ref_size cond + ref_size then_ + ref_size else_
  | Concat { high; low; _ } -> 1 + ref_size high + ref_size low

let ref_vars e =
  Expr.fold_vars (fun acc id _ _ -> Expr.Int_set.add id acc) Expr.Int_set.empty e

let test_metadata_matches_reference () =
  let rng = Random.State.make [| 0xBEEF; 42 |] in
  List.iter
    (fun w ->
      for _ = 1 to 200 do
        let e = gen rng w (1 + Random.State.int rng 5) in
        Alcotest.(check int) "size matches walk" (ref_size e) (Expr.size e);
        Alcotest.(check bool)
          "vars match walk" true
          (Expr.Int_set.equal (ref_vars e) (Expr.vars e));
        (* The strong hash must respect equality: rebuilding the node from
           its own parts through Raw yields the same hash (and node). *)
        Alcotest.(check int) "hash stable" (Expr.hash e) (Expr.hash e)
      done)
    widths

(* Equal expressions must have equal hashes even when built by different
   routes (smart constructors vs Raw re-interning of the same shape). *)
let test_hash_consistent_with_equal () =
  let rng = Random.State.make [| 999; 7 |] in
  for _ = 1 to 400 do
    let w = choose rng widths in
    let e = gen rng w (1 + Random.State.int rng 4) in
    let e' = Expr.intern_expr e in
    Alcotest.(check bool) "reintern is identity locally" true (e == e');
    Alcotest.(check int) "hash equal" (Expr.hash e) (Expr.hash e')
  done

(* Memoized simplify must be extensionally identical to the memo-free
   reference path, and (being deterministic per node id) structurally
   equal to it. *)
let test_simplify_memo_differential () =
  let rng = Random.State.make [| 31337; 5 |] in
  List.iter
    (fun w ->
      for _ = 1 to 200 do
        let e = gen rng w (1 + Random.State.int rng 5) in
        let cached = Simplifier.simplify e in
        let uncached = Simplifier.simplify_uncached e in
        if not (Expr.equal cached uncached) then
          Alcotest.failf
            "memoized simplify diverged:@.  original: %s@.  memo: %s@.  \
             reference: %s"
            (Expr.to_string e) (Expr.to_string cached)
            (Expr.to_string uncached);
        (* And a repeat call must hit the memo with the identical node. *)
        Alcotest.(check bool)
          "memo hit returns same node" true
          (Simplifier.simplify e == cached);
        for _ = 1 to models_per_tree do
          let m = random_model rng e in
          Alcotest.(check int64)
            "memoized simplify preserves eval" (Expr.eval m e)
            (Expr.eval m cached)
        done
      done)
    widths

(* The memo has no size gate: small nodes (the bulk of path constraints)
   are memoized like large ones and must still equal the memo-free
   reference exactly, first call and memo hit alike. *)
let test_simplify_memo_small () =
  let rng = Random.State.make [| 0x5AA11; 16 |] in
  let checked = ref 0 in
  for _ = 1 to 2000 do
    let e = gen rng (choose rng widths) (1 + Random.State.int rng 3) in
    if Expr.size e < 16 then begin
      incr checked;
      let uncached = Simplifier.simplify_uncached e in
      Alcotest.(check bool)
        "small-node simplify = reference" true
        (Expr.equal (Simplifier.simplify e) uncached);
      Alcotest.(check bool)
        "small-node memo hit = reference" true
        (Expr.equal (Simplifier.simplify e) uncached)
    end
  done;
  Alcotest.(check bool) "enough small trees generated" true (!checked > 500)

let tests =
  [
    Alcotest.test_case "simplifier differential (random trees x models)"
      `Quick test_simplifier_differential;
    Alcotest.test_case "simplifier idempotent" `Quick
      test_simplifier_idempotent_size;
    Alcotest.test_case "merged ite cells match unmerged paths" `Quick
      test_merged_ite_matches_unmerged;
    Alcotest.test_case "ite collapse rules" `Quick test_ite_collapse_rules;
    Alcotest.test_case "interning: equal iff physically equal" `Quick
      test_intern_equal_iff_physical;
    Alcotest.test_case "interning: colliding constant-cache slots" `Quick
      test_const_cache_collisions;
    Alcotest.test_case "interning: metadata matches reference walk" `Quick
      test_metadata_matches_reference;
    Alcotest.test_case "interning: hash consistent under re-intern" `Quick
      test_hash_consistent_with_equal;
    Alcotest.test_case "simplifier memo differential" `Quick
      test_simplify_memo_differential;
    Alcotest.test_case "simplifier memo on nodes below 16" `Quick
      test_simplify_memo_small;
  ]
