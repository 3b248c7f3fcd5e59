(* Per-domain sharded ring-buffer event tracer.  See trace.mli for the
   contract.  The emit path is a plain array store into the calling
   domain's own ring — no locks, no atomics, no sharing; the registry
   mutex guards only shard registration, interning, draining and reset,
   mirroring the Metrics design. *)

type code = Path_start | Path_end | Query | Phase | Instant

type event = {
  ev_ts : float;
  ev_dur : float;
  ev_pid : int;
  ev_dom : int;
  ev_code : code;
  ev_path : int;
  ev_a : int;
  ev_b : int;
  ev_c : int;
}

let dummy =
  {
    ev_ts = 0.;
    ev_dur = 0.;
    ev_pid = 0;
    ev_dom = 0;
    ev_code = Instant;
    ev_path = -1;
    ev_a = 0;
    ev_b = 0;
    ev_c = 0;
  }

type shard = {
  sh_id : int;
  mutable sh_slots : event array; (* allocated on first emit *)
  mutable sh_cap : int;
  mutable sh_total : int; (* events ever written *)
  mutable sh_taken : int; (* events handed out by drain *)
}

let mutex = Mutex.create ()
let shards : shard list ref = ref []
let nshards = ref 0
let default_capacity = 65536
let capacity = ref default_capacity

(* The single global on/off gate: a plain bool read on every emit.  Plain
   (not atomic) is deliberate — enabling happens before domains spawn and
   word-sized loads cannot tear. *)
let enabled_flag = ref false
let set_enabled b = enabled_flag := b
let enabled () = !enabled_flag

type dls = { mutable d_last : float; mutable d_path : int }

let shard_key =
  Domain.DLS.new_key (fun () ->
      Mutex.lock mutex;
      let s =
        { sh_id = !nshards; sh_slots = [||]; sh_cap = !capacity;
          sh_total = 0; sh_taken = 0 }
      in
      incr nshards;
      shards := s :: !shards;
      Mutex.unlock mutex;
      s)

let dls_key = Domain.DLS.new_key (fun () -> { d_last = 0.; d_path = -1 })

let now () =
  let d = Domain.DLS.get dls_key in
  let t = Unix.gettimeofday () in
  if t < d.d_last then d.d_last else begin d.d_last <- t; t end

let set_current_path id = (Domain.DLS.get dls_key).d_path <- id
let current_path () = (Domain.DLS.get dls_key).d_path

let clear_shards () =
  Mutex.lock mutex;
  List.iter
    (fun s ->
      s.sh_slots <- [||];
      s.sh_cap <- !capacity;
      s.sh_total <- 0;
      s.sh_taken <- 0)
    !shards;
  Mutex.unlock mutex

let set_capacity n =
  if n < 1 then invalid_arg "Trace.set_capacity";
  capacity := n;
  clear_shards ()

let reset () = clear_shards ()

(* ------------------------------------------------------------------ *)
(* Name interning                                                      *)
(* ------------------------------------------------------------------ *)

let names : (string, int) Hashtbl.t = Hashtbl.create 64
let ids : (int, string) Hashtbl.t = Hashtbl.create 64
let next_id = ref 0

let intern name =
  Mutex.lock mutex;
  let id =
    match Hashtbl.find_opt names name with
    | Some id -> id
    | None ->
        let id = !next_id in
        incr next_id;
        Hashtbl.add names name id;
        Hashtbl.add ids id name;
        id
  in
  Mutex.unlock mutex;
  id

let name_of id =
  Mutex.lock mutex;
  let n = Hashtbl.find_opt ids id in
  Mutex.unlock mutex;
  match n with Some n -> n | None -> Printf.sprintf "?%d" id

(* ------------------------------------------------------------------ *)
(* Emit (hot path)                                                     *)
(* ------------------------------------------------------------------ *)

let emit ev =
  let s = Domain.DLS.get shard_key in
  if s.sh_cap > 0 then begin
    if Array.length s.sh_slots = 0 then s.sh_slots <- Array.make s.sh_cap dummy;
    s.sh_slots.(s.sh_total mod s.sh_cap) <- { ev with ev_dom = s.sh_id };
    s.sh_total <- s.sh_total + 1
  end

let path_start ?ts ~path ~parent () =
  if !enabled_flag then
    let ts = match ts with Some t -> t | None -> now () in
    emit { dummy with ev_ts = ts; ev_code = Path_start; ev_path = path;
           ev_a = parent }

let path_end ?ts ~path ~status ~incomplete () =
  if !enabled_flag then
    let ts = match ts with Some t -> t | None -> now () in
    emit { dummy with ev_ts = ts; ev_code = Path_end; ev_path = path;
           ev_a = status; ev_b = (if incomplete then 1 else 0) }

let query ?ts ?(inc = 0) ~dur ~prefix ~nodes ~result ~cache () =
  if !enabled_flag then
    let ts = match ts with Some t -> t | None -> now () -. dur in
    emit { dummy with ev_ts = ts; ev_dur = dur; ev_code = Query;
           ev_path = current_path (); ev_a = prefix; ev_b = nodes;
           ev_c = (inc * 16) + (result * 4) + cache }

let span ~name ~ts ~dur =
  if !enabled_flag then
    emit { dummy with ev_ts = ts; ev_dur = dur; ev_code = Phase;
           ev_path = current_path (); ev_a = name }

let instant ?ts ?(path = -1) ?(a = 0) ?(b = 0) name =
  if !enabled_flag then
    let ts = match ts with Some t -> t | None -> now () in
    emit { dummy with ev_ts = ts; ev_code = Instant; ev_path = path;
           ev_a = name; ev_b = a; ev_c = b }

(* ------------------------------------------------------------------ *)
(* Draining                                                            *)
(* ------------------------------------------------------------------ *)

let drain () =
  Mutex.lock mutex;
  let evs = ref [] and dropped = ref 0 in
  List.iter
    (fun s ->
      if s.sh_cap > 0 && Array.length s.sh_slots > 0 then begin
        let total = s.sh_total in
        let lo = max s.sh_taken (total - s.sh_cap) in
        dropped := !dropped + (lo - s.sh_taken);
        for i = lo to total - 1 do
          evs := s.sh_slots.(i mod s.sh_cap) :: !evs
        done;
        s.sh_taken <- total
      end)
    !shards;
  Mutex.unlock mutex;
  (List.sort (fun a b -> compare a.ev_ts b.ev_ts) !evs, !dropped)

(* ------------------------------------------------------------------ *)
(* Binary chunk codec (worker -> coordinator shipping)                 *)
(* ------------------------------------------------------------------ *)

let int_of_code = function
  | Path_start -> 0
  | Path_end -> 1
  | Query -> 2
  | Phase -> 3
  | Instant -> 4

let code_of_int = function
  | 0 -> Path_start
  | 1 -> Path_end
  | 2 -> Query
  | 3 -> Phase
  | 4 -> Instant
  | n -> failwith (Printf.sprintf "Trace.decode_chunk: bad event code %d" n)

let w_i64 b n = Buffer.add_int64_le b (Int64.of_int n)
let w_f64 b f = Buffer.add_int64_le b (Int64.bits_of_float f)

let w_str b s =
  w_i64 b (String.length s);
  Buffer.add_string b s

type reader = { r_buf : string; mutable r_pos : int }

let r_i64 r =
  if r.r_pos + 8 > String.length r.r_buf then
    failwith "Trace.decode_chunk: truncated";
  let v = Int64.to_int (String.get_int64_le r.r_buf r.r_pos) in
  r.r_pos <- r.r_pos + 8;
  v

let r_f64 r =
  if r.r_pos + 8 > String.length r.r_buf then
    failwith "Trace.decode_chunk: truncated";
  let v = Int64.float_of_bits (String.get_int64_le r.r_buf r.r_pos) in
  r.r_pos <- r.r_pos + 8;
  v

let r_str r =
  let n = r_i64 r in
  if n < 0 || r.r_pos + n > String.length r.r_buf then
    failwith "Trace.decode_chunk: truncated string";
  let s = String.sub r.r_buf r.r_pos n in
  r.r_pos <- r.r_pos + n;
  s

let encode_chunk events ~dropped =
  let b = Buffer.create 4096 in
  (* Name table first so the decoder can remap Phase/Instant ids. *)
  Mutex.lock mutex;
  let table = Hashtbl.fold (fun name id acc -> (id, name) :: acc) names [] in
  Mutex.unlock mutex;
  w_i64 b (List.length table);
  List.iter (fun (id, name) -> w_i64 b id; w_str b name) table;
  w_i64 b dropped;
  w_i64 b (List.length events);
  List.iter
    (fun e ->
      w_i64 b (int_of_code e.ev_code);
      w_f64 b e.ev_ts;
      w_f64 b e.ev_dur;
      w_i64 b e.ev_dom;
      w_i64 b e.ev_path;
      w_i64 b e.ev_a;
      w_i64 b e.ev_b;
      w_i64 b e.ev_c)
    events;
  Buffer.contents b

let decode_chunk ?(pid = 0) ?(offset = 0.) s =
  let r = { r_buf = s; r_pos = 0 } in
  let ntable = r_i64 r in
  if ntable < 0 then failwith "Trace.decode_chunk: bad name table";
  let remap = Hashtbl.create (max 8 ntable) in
  for _ = 1 to ntable do
    let id = r_i64 r in
    let name = r_str r in
    Hashtbl.replace remap id (intern name)
  done;
  let remap_id id =
    match Hashtbl.find_opt remap id with Some id' -> id' | None -> id
  in
  let dropped = r_i64 r in
  let nev = r_i64 r in
  if nev < 0 then failwith "Trace.decode_chunk: bad event count";
  let evs = ref [] in
  for _ = 1 to nev do
    let code = code_of_int (r_i64 r) in
    let ts = r_f64 r in
    let dur = r_f64 r in
    let dom = r_i64 r in
    let path = r_i64 r in
    let a = r_i64 r in
    let b = r_i64 r in
    let c = r_i64 r in
    let a = match code with Phase | Instant -> remap_id a | _ -> a in
    evs :=
      { ev_ts = ts +. offset; ev_dur = dur; ev_pid = pid; ev_dom = dom;
        ev_code = code; ev_path = path; ev_a = a; ev_b = b; ev_c = c }
      :: !evs
  done;
  (List.rev !evs, dropped)

(* ------------------------------------------------------------------ *)
(* Chrome trace_event export                                           *)
(* ------------------------------------------------------------------ *)

let result_name = function 0 -> "sat" | 1 -> "unsat" | _ -> "unknown"
let cache_name = function 0 -> "miss" | 1 -> "model" | _ -> "unsat"

(* Realized incremental reuse for the query: [fresh] built a new SAT
   instance, [partial] popped a live instance to a common ancestor and
   asserted a suffix, [hit] probed a live instance whose assumption stack
   matched the whole prefix. *)
let inc_name = function 0 -> "fresh" | 1 -> "partial" | _ -> "hit"

(* Timestamps export as integer microseconds since [t0], the earliest
   event: absolute epoch microseconds (~1.8e15) are past the JSON
   writer's plain-integer range and would print in exponent form.  A
   span's start and end are rounded, and its duration is their
   difference: rounding the duration on its own could push a child's end
   past its parent's. *)
let json_of_event ~t0 e =
  let open Jsonl in
  let us t = Float.round ((t -. t0) *. 1e6) in
  let ts = us e.ev_ts in
  let base name ph args =
    let common =
      [ ("name", Str name); ("ph", Str ph); ("ts", Num ts);
        ("pid", Num (float_of_int e.ev_pid));
        ("tid", Num (float_of_int e.ev_dom)) ]
    in
    let dur =
      if ph = "X" then [ ("dur", Num (us (e.ev_ts +. e.ev_dur) -. ts)) ] else []
    in
    let scope = if ph = "i" then [ ("s", Str "t") ] else [] in
    Obj (common @ dur @ scope @ [ ("args", Obj args) ])
  in
  let path = ("path", Num (float_of_int e.ev_path)) in
  match e.ev_code with
  | Path_start ->
      base "path_start" "i"
        [ path; ("parent", Num (float_of_int e.ev_a)) ]
  | Path_end ->
      base "path_end" "i"
        [ path; ("status", Num (float_of_int e.ev_a));
          ("incomplete", Num (float_of_int e.ev_b)) ]
  | Query ->
      base "solver_query" "X"
        [ path;
          (* 63-bit hash: a JSON double would round it. *)
          ("prefix", Str (Printf.sprintf "0x%x" e.ev_a));
          ("nodes", Num (float_of_int e.ev_b));
          ("result", Str (result_name (e.ev_c / 4 mod 4)));
          ("cache", Str (cache_name (e.ev_c mod 4)));
          ("incremental", Str (inc_name (e.ev_c / 16))) ]
  | Phase -> base (name_of e.ev_a) "X" [ path ]
  | Instant ->
      base (name_of e.ev_a) "i"
        (path
         :: (if e.ev_b <> 0 || e.ev_c <> 0 then
               [ ("a", Num (float_of_int e.ev_b));
                 ("b", Num (float_of_int e.ev_c)) ]
             else []))

let to_json ?(dropped = 0) events =
  let open Jsonl in
  let t0 = List.fold_left (fun acc e -> Float.min acc e.ev_ts) infinity events in
  Obj
    [
      ("traceEvents", Arr (List.map (json_of_event ~t0) events));
      ("displayTimeUnit", Str "ms");
      ( "s2e",
        Obj
          [ ("dropped", Num (float_of_int dropped));
            ("events", Num (float_of_int (List.length events))) ] );
    ]

let write_json oc ?(dropped = 0) events =
  output_string oc (Jsonl.to_string (to_json ~dropped events));
  output_char oc '\n'
