(* Tests for the cache/TLB simulator. *)

open S2e_cachesim

let cfg ?(size = 1024) ?(line = 64) ?(assoc = 2) name =
  { Cache.size; line_size = line; associativity = assoc; name }

let test_cold_misses () =
  let c = Cache.create (cfg "t") in
  Alcotest.(check bool) "first access misses" false (Cache.access c 0);
  Alcotest.(check bool) "second access hits" true (Cache.access c 0);
  Alcotest.(check bool) "same line hits" true (Cache.access c 63);
  Alcotest.(check bool) "next line misses" false (Cache.access c 64)

let test_associativity_lru () =
  (* 2-way, 1024B, 64B lines -> 8 sets.  Lines mapping to set 0 are
     multiples of 512. *)
  let c = Cache.create (cfg "t") in
  ignore (Cache.access c 0);
  ignore (Cache.access c 512);
  Alcotest.(check bool) "both ways resident" true (Cache.access c 0);
  ignore (Cache.access c 1024); (* evicts LRU = 512 *)
  Alcotest.(check bool) "0 still resident" true (Cache.access c 0);
  Alcotest.(check bool) "512 evicted" false (Cache.access c 512)

let test_clone_independent () =
  let c = Cache.create (cfg "t") in
  ignore (Cache.access c 0);
  let c' = Cache.clone c in
  ignore (Cache.access c' 4096);
  let _, m = Cache.stats c in
  let _, m' = Cache.stats c' in
  Alcotest.(check int) "original misses" 1 m;
  Alcotest.(check int) "clone misses" 2 m'

let prop_miss_count_bounded =
  QCheck2.Test.make ~count:100 ~name:"misses never exceed accesses"
    QCheck2.Gen.(list_size (int_bound 200) (int_bound 100_000))
    (fun addrs ->
      let c = Cache.create (cfg "t") in
      List.iter (fun a -> ignore (Cache.access c a)) addrs;
      let acc, m = Cache.stats c in
      acc = List.length addrs && m <= acc)

let prop_repeat_hits =
  QCheck2.Test.make ~count:50 ~name:"re-access of a small working set hits"
    QCheck2.Gen.(int_bound 7)
    (fun n ->
      let c = Cache.create (cfg ~size:4096 ~assoc:4 "t") in
      let addrs = List.init (n + 1) (fun i -> i * 64) in
      List.iter (fun a -> ignore (Cache.access c a)) addrs;
      List.for_all (fun a -> Cache.access c a) addrs)

(* --- copy-on-write clones against a copying reference model --- *)

(* Reference set-associative LRU cache: per set, the resident tags most
   recent first.  Lists are immutable, so cloning copies the set array. *)
module Ref_cache = struct
  type t = {
    line : int;
    sets : int;
    assoc : int;
    lru : int list array;
    mutable accesses : int;
    mutable misses : int;
  }

  let create (c : Cache.config) =
    let sets = c.size / (c.line_size * c.associativity) in
    { line = c.line_size; sets; assoc = c.associativity;
      lru = Array.make sets []; accesses = 0; misses = 0 }

  let clone t = { t with lru = Array.copy t.lru }

  let access t addr =
    let line = addr / t.line in
    let set = line mod t.sets and tag = line / t.sets in
    let ways = t.lru.(set) in
    let hit = List.mem tag ways in
    let rest = List.filter (fun x -> x <> tag) ways in
    t.lru.(set) <- List.filteri (fun i _ -> i < t.assoc) (tag :: rest);
    t.accesses <- t.accesses + 1;
    if not hit then t.misses <- t.misses + 1;
    hit
end

(* Geometries whose sets span several copy-on-write chunks, including an
   associativity that is not a power of two. *)
let cow_geometries =
  [
    cfg ~size:4096 ~line:16 ~assoc:4 "4k-4way";
    cfg ~size:2048 ~line:8 ~assoc:2 "2k-2way";
    cfg ~size:4800 ~line:16 ~assoc:3 "3way-100sets";
    cfg ~size:8192 ~line:32 ~assoc:16 "16way";
  ]

(* A run is a list of (op, copy, addr): op 0 clones the chosen copy
   (parent and child both stay live), any other op accesses it. *)
let cow_ops =
  QCheck2.Gen.(
    list_size (int_range 1 600)
      (triple (int_bound 11) (int_bound 1000)
         (oneof [ int_bound 16383; int_bound (1 lsl 20) ])))

let prop_cow_cache_matches_reference =
  QCheck2.Test.make ~count:200 ~name:"copy-on-write clones = copying LRU model"
    QCheck2.Gen.(pair (oneofl cow_geometries) cow_ops)
    (fun (geom, ops) ->
      let copies = ref [| (Cache.create geom, Ref_cache.create geom) |] in
      List.iter
        (fun (op, who, addr) ->
          let c, r = !copies.(who mod Array.length !copies) in
          if op = 0 then
            copies := Array.append !copies [| (Cache.clone c, Ref_cache.clone r) |]
          else if Cache.access c addr <> Ref_cache.access r addr then
            QCheck2.Test.fail_reportf "%s: hit/miss differs at %d"
              geom.Cache.name addr)
        ops;
      Array.for_all
        (fun (c, r) -> Cache.stats c = (r.Ref_cache.accesses, r.misses))
        !copies)

(* Reference hierarchy: split L1s over an L2, plus a fully associative
   LRU TLB and the set of pages touched. *)
type ref_hier = {
  ri1 : Ref_cache.t;
  rd1 : Ref_cache.t;
  rl2 : Ref_cache.t;
  rtlb : Ref_cache.t;
  mutable pages : int list;
}

let hier_config =
  ( cfg ~size:2048 ~line:16 ~assoc:2 "I1",
    cfg ~size:4096 ~line:16 ~assoc:4 "D1",
    [ cfg ~size:16384 ~line:16 ~assoc:4 "L2" ] )

let ref_hier_create () =
  let i1, d1, l2 = hier_config in
  { ri1 = Ref_cache.create i1; rd1 = Ref_cache.create d1;
    rl2 = Ref_cache.create (List.hd l2);
    rtlb = Ref_cache.create (cfg ~size:(64 * 4096) ~line:4096 ~assoc:64 "tlb");
    pages = [] }

let ref_hier_clone h =
  { ri1 = Ref_cache.clone h.ri1; rd1 = Ref_cache.clone h.rd1;
    rl2 = Ref_cache.clone h.rl2; rtlb = Ref_cache.clone h.rtlb;
    pages = h.pages }

let ref_hier_access h l1 addr =
  ignore (Ref_cache.access h.rtlb addr);
  let page = addr / 4096 in
  if not (List.mem page h.pages) then h.pages <- page :: h.pages;
  if not (Ref_cache.access l1 addr) then ignore (Ref_cache.access h.rl2 addr)

let ref_hier_totals h =
  { Hierarchy.i1_misses = h.ri1.Ref_cache.misses; d1_misses = h.rd1.misses;
    l2_misses = h.rl2.misses; tlb_misses = h.rtlb.misses;
    page_faults = List.length h.pages }

let prop_cow_hierarchy_matches_reference =
  QCheck2.Test.make ~count:100 ~name:"Hierarchy.clone = copying reference"
    cow_ops
    (fun ops ->
      let copies =
        ref [| (Hierarchy.create ~config:hier_config (), ref_hier_create ()) |]
      in
      List.iter
        (fun (op, who, addr) ->
          let h, r = !copies.(who mod Array.length !copies) in
          (match op with
          | 0 ->
              copies :=
                Array.append !copies [| (Hierarchy.clone h, ref_hier_clone r) |]
          | 1 | 2 | 3 | 4 | 5 ->
              Hierarchy.fetch h addr;
              ref_hier_access r r.ri1 addr
          | _ ->
              Hierarchy.data h addr;
              ref_hier_access r r.rd1 addr);
          if Hierarchy.totals h <> ref_hier_totals r then
            QCheck2.Test.fail_reportf "totals differ after op %d at %d" op addr)
        ops;
      Array.for_all
        (fun (h, r) -> Hierarchy.totals h = ref_hier_totals r)
        !copies)

let test_tlb_and_page_faults () =
  let t = Tlb.create ~page_size:4096 ~entries:4 () in
  Tlb.access t 0;
  Tlb.access t 4096;
  Tlb.access t 0;
  let acc, misses, faults = Tlb.stats t in
  Alcotest.(check int) "accesses" 3 acc;
  Alcotest.(check int) "tlb misses" 2 misses;
  Alcotest.(check int) "page faults" 2 faults;
  (* revisiting a resident page is not a fault even after TLB eviction *)
  Tlb.access t (2 * 4096);
  Tlb.access t (3 * 4096);
  Tlb.access t (4 * 4096);
  Tlb.access t (5 * 4096); (* page 0 evicted from TLB by now *)
  Tlb.access t 0;
  let _, _, faults = Tlb.stats t in
  Alcotest.(check int) "page 0 still resident" 6 faults

let test_hierarchy () =
  let h = Hierarchy.create () in
  Hierarchy.fetch h 0x1000;
  Hierarchy.data h 0x2000;
  Hierarchy.data h 0x2000;
  let t = Hierarchy.totals h in
  Alcotest.(check int) "i1 misses" 1 t.Hierarchy.i1_misses;
  Alcotest.(check int) "d1 misses" 1 t.d1_misses;
  Alcotest.(check int) "l2 misses" 2 t.l2_misses;
  Alcotest.(check int) "page faults" 2 t.page_faults

let tests =
  [
    Alcotest.test_case "cold misses" `Quick test_cold_misses;
    Alcotest.test_case "associativity + LRU" `Quick test_associativity_lru;
    Alcotest.test_case "clone independence" `Quick test_clone_independent;
    QCheck_alcotest.to_alcotest prop_miss_count_bounded;
    QCheck_alcotest.to_alcotest prop_repeat_hits;
    QCheck_alcotest.to_alcotest prop_cow_cache_matches_reference;
    QCheck_alcotest.to_alcotest prop_cow_hierarchy_matches_reference;
    Alcotest.test_case "tlb and page faults" `Quick test_tlb_and_page_faults;
    Alcotest.test_case "hierarchy" `Quick test_hierarchy;
  ]
