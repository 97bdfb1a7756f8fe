open Expirel_core
open Expirel_storage
open Expirel_exec

let fin = Time.of_int
let make () = Table.create ~name:"t" ~columns:[ "a"; "b" ] ()

let test_schema () =
  let t = make () in
  Alcotest.(check string) "name" "t" (Table.name t);
  Alcotest.(check int) "arity" 2 (Table.arity t);
  Alcotest.(check (option int)) "column position" (Some 2) (Table.column_position t "b");
  Alcotest.(check (option int)) "unknown column" None (Table.column_position t "z");
  Alcotest.check_raises "empty columns" (Invalid_argument "Table.create: no columns")
    (fun () -> ignore (Table.create ~name:"x" ~columns:[] ()))

let test_insert_update () =
  let t = make () in
  let row = Tuple.ints [ 1; 2 ] in
  Table.insert t row ~texp:(fin 5);
  Table.insert t row ~texp:(fin 9);
  Alcotest.(check int) "set semantics" 1 (Table.physical_count t);
  Alcotest.(check (option string)) "update overwrites texp" (Some "9")
    (Option.map Time.to_string (Table.texp_of t row));
  Alcotest.(check bool) "delete" true (Table.delete t row);
  Alcotest.(check bool) "delete absent" false (Table.delete t row);
  Alcotest.(check int) "gone" 0 (Table.physical_count t)

let test_snapshot_and_expiry () =
  let t = make () in
  Table.insert t (Tuple.ints [ 1; 1 ]) ~texp:(fin 5);
  Table.insert t (Tuple.ints [ 2; 2 ]) ~texp:(fin 10);
  Table.insert t (Tuple.ints [ 3; 3 ]) ~texp:Time.Inf;
  Alcotest.(check int) "live at 4" 3 (Table.live_estimate t ~tau:(fin 4));
  Alcotest.(check int) "live at 5" 2 (Table.live_estimate t ~tau:(fin 5));
  (* Lazy invisibility: snapshot hides expired rows even before any
     physical removal. *)
  let snap = Table.snapshot t ~tau:(fin 7) in
  Alcotest.(check int) "snapshot filters" 2 (Relation.cardinal snap);
  Alcotest.(check int) "physical rows untouched" 3 (Table.physical_count t);
  (* Eager removal returns the expired rows in time order. *)
  let expired = Table.expire_upto t (fin 10) in
  Alcotest.(check (list string)) "expired rows" [ "<1, 1>"; "<2, 2>" ]
    (List.map (fun (tuple, _) -> Tuple.to_string tuple) expired);
  Alcotest.(check int) "physically removed" 1 (Table.physical_count t)

let test_update_after_expiry_scheduled () =
  let t = make () in
  let row = Tuple.ints [ 1; 1 ] in
  Table.insert t row ~texp:(fin 3);
  Table.insert t row ~texp:(fin 20);
  Alcotest.(check (list string)) "renewed row does not expire early" []
    (List.map (fun (tuple, _) -> Tuple.to_string tuple) (Table.expire_upto t (fin 10)));
  Alcotest.(check int) "still there" 1 (Table.physical_count t)

let test_vacuum () =
  let t = make () in
  Table.insert t (Tuple.ints [ 1; 1 ]) ~texp:(fin 2);
  Table.insert t (Tuple.ints [ 2; 2 ]) ~texp:(fin 4);
  Alcotest.(check int) "vacuum count" 2 (Table.vacuum t ~tau:(fin 9));
  Alcotest.(check int) "empty" 0 (Table.physical_count t)

let prop_snapshot_equals_reference =
  Generators.qtest "snapshot = reference exp_tau over inserts" ~count:200
    (QCheck2.Gen.pair
       (QCheck2.Gen.list_size (QCheck2.Gen.int_range 0 30)
          (QCheck2.Gen.pair (Generators.tuple ~arity:2) Generators.texp))
       Generators.time_finite)
    (fun (rows, tau) ->
      let t = make () in
      let reference =
        List.fold_left
          (fun acc (row, texp) ->
            Table.insert t row ~texp;
            (* Last write wins, like Table.insert. *)
            Relation.replace row ~texp acc)
          (Relation.empty ~arity:2) rows
      in
      Relation.equal (Table.snapshot t ~tau) (Relation.exp tau reference))

(* The texp-ordered run against a plain association-list model.  Random
   insert / overwrite / delete / eager-advance / lazy-vacuum sequences,
   with bursts past [Texp_run.chunk_rows] so pending folds and chunk
   splits happen, and runs of deletes so shrunk chunks merge; after
   every step every reader of the run must agree with the model. *)
type op =
  | Ins of int * int * int  (* a, b, ttl (0 = never expires) *)
  | Overwrite of int * int  (* the i-th model row, new ttl *)
  | Del of int * int
  | Del_nth of int
  | Del_span of int * int  (* rows [i, i + n) in (texp, tuple) order *)
  | Burst of int * int  (* seed, rows *)
  | Advance of int  (* eager: clock + dt, then expire_upto *)
  | Tick of int  (* lazy: the clock moves, rows stay *)
  | Vacuum

let op_gen =
  let open QCheck2.Gen in
  frequency
    [ 6, map3 (fun a b ttl -> Ins (a, b, ttl)) (int_range 0 30) (int_range 0 3)
           (int_range 0 40);
      4, map2 (fun i ttl -> Overwrite (i, ttl)) (int_range 0 10_000) (int_range 1 60);
      2, map2 (fun a b -> Del (a, b)) (int_range 0 30) (int_range 0 3);
      4, map (fun i -> Del_nth i) (int_range 0 10_000);
      1, map2 (fun i n -> Del_span (i, n)) (int_range 0 10_000) (int_range 50 300);
      1, map2 (fun seed n -> Burst (seed, n)) (int_range 0 1_000) (int_range 100 700);
      2, map (fun dt -> Advance dt) (int_range 0 15);
      2, map (fun dt -> Tick dt) (int_range 0 15);
      1, return Vacuum ]

let by_key (t1, e1) (t2, e2) =
  match Time.compare e1 e2 with 0 -> Tuple.compare t1 t2 | c -> c

let chunk_rows c =
  let texps = Texp_run.chunk_texps c in
  List.init (Texp_run.chunk_len c) (fun r ->
      ( Tuple.of_list
          [ (Texp_run.chunk_col c 1).(r); (Texp_run.chunk_col c 2).(r) ],
        texps.(r) ))

(* After every step, a write or an expiration that shrank the run, the
   pending changes are under the fold bound. *)
let check_run t model ~now =
  let fail fmt = Printf.ksprintf failwith fmt in
  let run = Table.run t in
  if Texp_run.pending run >= max Texp_run.chunk_rows (Texp_run.length run / 4) then
    fail "pending changes over the bound";
  let scan tau =
    let passed = ref [] in
    Texp_run.scan_range run ~tau ~lo:Texp_run.Unbounded ~hi:Texp_run.Unbounded
      ~visited:(ref 0) ~dropped:(ref 0) (fun c sel -> passed := (c, sel) :: !passed);
    List.rev !passed
  in
  (* A scan at the earliest time passes every held row: the folded
     chunks in order, then the pending adds' (one restart at most). *)
  let passed = scan (Time.of_int min_int) in
  List.iter
    (fun (c, _) ->
      let n = Texp_run.chunk_len c in
      if n = 0 || n > Texp_run.chunk_rows then fail "chunk of %d rows" n)
    passed;
  let rec descents = function
    | a :: (b :: _ as rest) -> (if by_key a b < 0 then 0 else 1) + descents rest
    | [] | [ _ ] -> 0
  in
  if descents (List.concat_map (fun (c, _) -> chunk_rows c) passed) > 1 then
    fail "chunks not ascending by (texp, tuple)";
  let selected (c, sel) =
    let rows = Array.of_list (chunk_rows c) in
    match sel with
    | None -> Array.to_list rows
    | Some s -> List.map (fun r -> rows.(r)) (Array.to_list s)
  in
  let held = List.concat_map selected passed in
  let expected = List.sort by_key model in
  if List.sort by_key held <> expected then fail "run rows <> physical rows";
  if Table.physical_count t <> List.length model then
    fail "physical_count";
  let finite = List.filter (fun (_, e) -> Time.is_finite e) model in
  let next =
    List.fold_left
      (fun acc (_, e) ->
        Some (match acc with None -> e | Some m -> Time.min m e))
      None finite
  in
  if Table.next_expiry t <> next then fail "next_expiry";
  List.iter
    (fun tau ->
      let live = List.filter (fun (_, e) -> Time.(e > tau)) model in
      if Table.live_estimate t ~tau <> List.length live then
        fail "live_estimate at %s" (Time.to_string tau);
      let range =
        match List.map snd live with
        | [] -> None
        | e :: es -> Some (List.fold_left Time.min e es, List.fold_left Time.max e es)
      in
      if Table.live_texp_range t ~tau <> range then
        fail "live_texp_range at %s" (Time.to_string tau);
      let batches = List.map (fun (c, sel) -> Batch.of_slice ~arity:2 c sel) (scan tau) in
      if not
           (Relation.equal
              (Batch.to_relation ~arity:2 batches)
              (Relation.of_list ~arity:2 live))
      then fail "batch scan at %s" (Time.to_string tau);
      let bounds = [| 1; 3; 10; 50; max_int |] in
      let v = Option.get (Time.to_int_opt tau) in
      let expected =
        Array.mapi
          (fun i bound ->
            let lo = if i = 0 then v else v + bounds.(i - 1) in
            List.length
              (List.filter
                 (fun (_, e) ->
                   Time.(e > Time.of_int lo)
                   && (bound = max_int || Time.(e <= Time.of_int (v + bound))))
                 model))
          bounds
      in
      if Table.expiring_within t ~now:tau ~bounds <> expected then
        fail "expiring_within at %s" (Time.to_string tau))
    [ Time.of_int (max 0 (now - 7)); Time.of_int now; Time.of_int (now + 4);
      Time.of_int (now + 45) ]

let prop_run_matches_model =
  Generators.qtest "texp-ordered run = association-list model" ~count:60
    (* A failure shrinks by dropping ops, each kept whole, so it reports
       in seconds: shrinking the ops' fields tried about 1 600 replays
       of up to 40 steps, bursts of hundreds of rows among them. *)
    (QCheck2.Gen.list_size (QCheck2.Gen.int_range 1 40) (QCheck2.Gen.no_shrink op_gen))
    (fun ops ->
      let t = make () in
      let model = ref [] and now = ref 0 in
      let texp_of ttl = if ttl = 0 then Time.Inf else Time.of_int (!now + ttl) in
      let insert row texp =
        Table.insert t row ~texp;
        model :=
          (row, texp) :: List.filter (fun (r, _) -> not (Tuple.equal r row)) !model
      in
      let delete row =
        let present = List.exists (fun (r, _) -> Tuple.equal r row) !model in
        if Table.delete t row <> present then failwith "delete result";
        model := List.filter (fun (r, _) -> not (Tuple.equal r row)) !model
      in
      let nth i = fst (List.nth !model (i mod List.length !model)) in
      let expire () =
        let dead (_, e) = Time.(e <= Time.of_int !now) in
        let due = List.sort by_key (List.filter dead !model) in
        model := List.filter (fun row -> not (dead row)) !model;
        due
      in
      List.iter
        (fun op ->
          (match op with
           | Ins (a, b, ttl) -> insert (Tuple.ints [ a; b ]) (texp_of ttl)
           | Overwrite (i, ttl) -> if !model <> [] then insert (nth i) (texp_of ttl)
           | Del (a, b) -> delete (Tuple.ints [ a; b ])
           | Del_nth i -> if !model <> [] then delete (nth i)
           | Del_span (i, n) ->
             let rows = List.sort by_key !model in
             let len = List.length rows in
             if len > 0 then
               List.iteri
                 (fun k (row, _) ->
                   let k = (k - (i mod len) + len) mod len in
                   if k < n then delete row)
                 rows
           | Burst (seed, n) ->
             for k = 1 to n do
               insert (Tuple.ints [ 1000 + seed; k ])
                 (texp_of (1 + ((seed * 7919) + (k * 104729)) mod 97))
             done
           | Advance dt ->
             now := !now + dt;
             if Table.expire_upto t (Time.of_int !now) <> expire () then
               failwith "expire_upto order"
           | Tick dt -> now := !now + dt
           | Vacuum ->
             let reclaimed = Table.vacuum t ~tau:(Time.of_int !now) in
             if reclaimed <> List.length (expire ()) then failwith "vacuum count");
          check_run t !model ~now:!now)
        ops;
      true)

(* An expiration that drops whole chunks shrinks the run under its
   pending changes: they fold there, so a later no-op (a delete of an
   absent row) finds them under the bound.  An ascending load past
   1 024 rows is folded into chunks; rows that outlive it wait as
   pending adds; the clock then passes every folded chunk. *)
let test_expiry_folds () =
  let t = make () and model = ref [] in
  let insert row texp =
    Table.insert t row ~texp;
    model := (row, texp) :: !model
  in
  for k = 1 to 2_000 do insert (Tuple.ints [ k; 0 ]) (fin k) done;
  let run = Table.run t and k = ref 0 in
  while Texp_run.pending run < 300 do
    incr k;
    insert (Tuple.ints [ 5_000 + !k; 1 ]) (fin 10_000)
  done;
  check_run t !model ~now:0;
  let due = List.sort by_key (List.filter (fun (_, e) -> Time.(e <= fin 2_000)) !model) in
  if Table.expire_upto t (fin 2_000) <> due then Alcotest.fail "expire_upto";
  model := List.filter (fun (_, e) -> Time.(e > fin 2_000)) !model;
  check_run t !model ~now:2_000;
  Alcotest.(check bool) "delete of an absent row" false (Table.delete t (Tuple.ints [ 1; 0 ]));
  check_run t !model ~now:2_000

(* A run ascends in [(key, texp, tuple)] order whatever the keys and
   texps: a key compares by an int prefix first (a texp, or an index
   key: Null and Bool lowest, an Int by value, Float and Str highest)
   and by the full comparison on equal prefixes.  A run built whole is
   read back in exactly that order; a run filled by adds folds, fills
   its write buffer and merges its levels, and its scan is the chunks,
   then the pending adds, each ascending. *)
let any_value =
  let open QCheck2.Gen in
  oneof
    [ return Value.Null;
      map Value.bool bool;
      map Value.int (oneof [ int_range (-3) 3; oneofl [ min_int; max_int; min_int + 1; max_int - 1 ]; int ]);
      map Value.float (oneof [ oneofl [ Float.nan; -0.; 0.; Float.infinity; Float.neg_infinity; 1.5 ]; float ]);
      map Value.str (string_size ~gen:(char_range 'a' 'c') (int_range 0 2)) ]

let any_texp =
  let open QCheck2.Gen in
  oneof
    [ return Time.Inf;
      map fin (int_range 1 4);
      map fin (oneofl [ min_int + 1; -5; max_int - 1; max_int ]);
      map (fun n -> fin (Int.max n (min_int + 1))) int ]

let prop_any_keys_ascend =
  Generators.qtest "a run of any keys ascends in (key, texp, tuple) order" ~count:100
    QCheck2.Gen.(no_shrink (list_size (int_range 0 800) (pair (pair any_value any_value) any_texp)))
    (fun draws ->
      let rows =
        List.mapi (fun i ((a, b), e) -> (Tuple.of_list [ a; b; Value.int i ], e)) draws
      in
      let tau = Time.of_int min_int in
      let emitted run =
        let out = ref [] in
        Texp_run.scan_range run ~tau ~lo:Texp_run.Unbounded ~hi:Texp_run.Unbounded
          ~visited:(ref 0) ~dropped:(ref 0) (fun c sel ->
            let texps = Texp_run.chunk_texps c in
            let row r = Tuple.init ~arity:3 (fun j -> (Texp_run.chunk_col c j).(r)), texps.(r) in
            match sel with
            | None -> for r = 0 to Texp_run.chunk_len c - 1 do out := row r :: !out done
            | Some s -> Array.iter (fun r -> out := row r :: !out) s);
        List.rev !out
      in
      List.for_all
        (fun key ->
          let order (t1, e1) (t2, e2) =
            let k tu = match key with None -> Value.Null | Some j -> Tuple.attr tu j in
            match Value.compare (k t1) (k t2) with
            | 0 -> (match Time.compare e1 e2 with 0 -> Tuple.compare t1 t2 | c -> c)
            | c -> c
          in
          let want = List.sort order rows in
          let whole = emitted (Texp_run.create ?key ~arity:3 rows) in
          let added = Texp_run.create ?key ~arity:3 [] in
          List.iter (fun (tu, e) -> Texp_run.add added tu e) rows;
          let got = emitted added in
          (* the chunks, then the pending adds: at most one descent *)
          let rec descents = function
            | a :: (b :: _ as rest) -> (if order a b > 0 then 1 else 0) + descents rest
            | [ _ ] | [] -> 0
          in
          (* [Float.compare], not [=], equates NaNs *)
          let same = List.equal (fun a b -> order a b = 0) in
          same whole want && same (List.sort order got) want && descents got <= 1)
        [ None; Some 1; Some 2 ])

(* ---------- bursts: writes with no read between them ---------- *)

(* The model property above reads after every write, so its pending
   sets change by one key between reads.  These draws write bursts of
   2..600 changes to a table with indexes on both columns and read
   nothing in between, so bursts fill write buffers, merge levels and
   cross folds; then every reader of the three runs is compared with a
   model.  Bursts cancel pending removals (a row deleted and written
   back with its texp). *)
type burst_op =
  | B_add of int * int * int  (* a, b, ttl (0 = never expires) *)
  | B_over of int * int  (* the i-th model row, new ttl *)
  | B_del of int
  | B_cancel of int  (* the i-th row deleted, then written back as it was *)

type phase =
  | Burst of burst_op list * int  (* the ops, and which reader reads first *)
  | Expire of int  (* eager: the clock moves by dt, then expire_upto *)
  | Lazy_tick of int  (* the clock moves, rows stay *)

let burst_op_gen =
  let open QCheck2.Gen in
  frequency
    [ 6, map3 (fun a b ttl -> B_add (a, b, ttl)) (int_range 0 1_500) (int_range 0 3)
           (int_range 0 80);
      3, map2 (fun i ttl -> B_over (i, ttl)) (int_range 0 10_000) (int_range 1 80);
      2, map (fun i -> B_del i) (int_range 0 10_000);
      2, map (fun i -> B_cancel i) (int_range 0 10_000) ]

let phase_gen =
  let open QCheck2.Gen in
  frequency
    [ 5, map2 (fun ops first -> Burst (ops, first))
           (* a burst is kept whole when a failure shrinks: shrinking
              hundreds of ops one by one replays every phase each time *)
           (no_shrink (list_size (int_range 2 600) burst_op_gen))
           (int_range 0 7);
      1, map (fun dt -> Expire dt) (int_range 0 20);
      1, map (fun dt -> Lazy_tick dt) (int_range 0 20) ]

(* The model: [rows] is what the table holds, [ghosts] the rows that
   expired (the indexes' [count_range] may count them until they are
   reclaimed). *)
type model = {
  mutable rows : (Tuple.t * Time.t) list;
  mutable ghosts : (Tuple.t * Time.t) list;
  mutable now : int;
}

let indexed () =
  let t = make () in
  Table.create_index t ~column:1;
  Table.create_index t ~column:2;
  t

let runs t = [ Table.run t; Table.index t ~column:1; Table.index t ~column:2 ]

let in_bounds lo hi k =
  (match lo with
   | Texp_run.Unbounded -> true
   | Texp_run.Inclusive v -> Value.compare k v >= 0
   | Texp_run.Exclusive v -> Value.compare k v > 0)
  &&
  match hi with
  | Texp_run.Unbounded -> true
  | Texp_run.Inclusive v -> Value.compare k v <= 0
  | Texp_run.Exclusive v -> Value.compare k v < 0

let scanned run ~tau ~lo ~hi =
  let out = ref [] in
  Texp_run.scan_range run ~tau ~lo ~hi ~visited:(ref 0) ~dropped:(ref 0) (fun c sel ->
      let rows = Array.of_list (chunk_rows c) in
      match sel with
      | None -> Array.iter (fun r -> out := r :: !out) rows
      | Some s -> Array.iter (fun r -> out := rows.(r) :: !out) s);
  List.sort by_key !out

let texp_extreme pick = function
  | [] -> None
  | (_, e) :: rest -> Some (List.fold_left (fun m (_, e) -> pick m e) e rest)

(* Every reader of the table's run and of its two indexes against the
   model, at several clocks, reader [first] first, so each reader in
   turn is the first to read a burst's pending sets. *)
let check_readers ?(first = 0) t m =
  let fail fmt = Printf.ksprintf failwith fmt in
  let taus = List.map Time.of_int [ m.now - 3; m.now; m.now + 5; m.now + 30; m.now + 200 ] in
  let bounds =
    let open Texp_run in
    [ Unbounded, Unbounded; Inclusive (Value.int 2), Inclusive (Value.int 2);
      Exclusive (Value.int 0), Inclusive (Value.int 2); Unbounded, Exclusive (Value.int 700);
      Inclusive (Value.int 300), Unbounded; Inclusive (Value.int 450), Exclusive (Value.int 460) ]
  in
  let live tau = List.filter (fun (_, e) -> Time.(e > tau)) m.rows in
  let table_run f = f (Table.run t) in
  let indexes f = List.iter (fun column -> f column (Table.index t ~column)) [ 1; 2 ] in
  let keyed_scan column run =
    List.iter
      (fun tau ->
        List.iter
          (fun (lo, hi) ->
            let inside (tu, _) = in_bounds lo hi (Tuple.attr tu column) in
            if scanned run ~tau ~lo ~hi <> List.sort by_key (List.filter inside (live tau)) then
              fail "keyed scan_range at %s" (Time.to_string tau))
          bounds)
      taus
  in
  let checks =
    [ (fun () ->
        table_run (fun run ->
            List.iter
              (fun tau ->
                let all = Texp_run.Unbounded in
                if scanned run ~tau ~lo:all ~hi:all <> List.sort by_key (live tau) then
                  fail "scan_range at %s" (Time.to_string tau))
              taus));
      (fun () -> indexes keyed_scan);
      (fun () ->
        table_run (fun run ->
            List.iter
              (fun tau ->
                let due = List.filter (fun (_, e) -> Time.(e <= tau)) m.rows in
                if Texp_run.count_upto run tau <> List.length due then
                  fail "count_upto at %s" (Time.to_string tau))
              taus));
      (fun () ->
        table_run (fun run ->
            List.iter
              (fun tau ->
                if Texp_run.min_live_texp run ~tau <> texp_extreme Time.min (live tau) then
                  fail "min_live_texp at %s" (Time.to_string tau))
              taus));
      (fun () ->
        table_run (fun run ->
            if Texp_run.max_texp run <> texp_extreme Time.max m.rows then fail "max_texp";
            if Texp_run.min_texp run <> texp_extreme Time.min m.rows then fail "min_texp"));
      (fun () ->
        indexes (fun column run ->
            List.iter
              (fun (lo, hi) ->
                let count rows =
                  List.length (List.filter (fun (tu, _) -> in_bounds lo hi (Tuple.attr tu column)) rows)
                in
                let n = Texp_run.count_range run ~lo ~hi and held = count m.rows in
                if n < held || n > held + count m.ghosts then fail "count_range %d, %d held" n held)
              bounds));
      (fun () ->
        indexes (fun column run ->
            match Texp_run.key_extrema run, m.rows with
            | None, [] -> ()
            | None, _ :: _ -> fail "key_extrema: none"
            | Some (lo, hi), rows ->
              let outside (tu, _) =
                let k = Tuple.attr tu column in
                Value.compare k lo < 0 || Value.compare k hi > 0
              in
              if List.exists outside rows then fail "key_extrema does not bracket the rows")) ]
  in
  let n = List.length checks in
  List.iteri (fun i _ -> (List.nth checks ((first + i) mod n)) ()) checks

let pending_bound t =
  List.iter
    (fun run ->
      if Texp_run.pending run >= max Texp_run.chunk_rows (Texp_run.length run / 4) then
        failwith "pending changes over the bound")
    (runs t)

let apply_burst t m ops =
  let texp_of ttl = if ttl = 0 then Time.Inf else Time.of_int (m.now + ttl) in
  let forget tu = m.rows <- List.filter (fun (r, _) -> not (Tuple.equal r tu)) m.rows in
  let nth i = List.nth m.rows (i mod List.length m.rows) in
  let insert tu texp = Table.insert t tu ~texp; forget tu; m.rows <- (tu, texp) :: m.rows in
  List.iter
    (function
      | B_add (a, b, ttl) -> insert (Tuple.ints [ a; b ]) (texp_of ttl)
      | B_over (i, ttl) -> if m.rows <> [] then insert (fst (nth i)) (texp_of ttl)
      | B_del i ->
        if m.rows <> [] then begin
          let tu, _ = nth i in
          if not (Table.delete t tu) then failwith "delete of a held row";
          forget tu
        end
      | B_cancel i ->
        if m.rows <> [] then begin
          let tu, texp = nth i in
          let before = List.map Texp_run.pending (runs t) in
          ignore (Table.delete t tu : bool);
          Table.insert t tu ~texp;
          (* A row written back as it was cancels its pending removal:
             no run holds more pending changes than before. *)
          if List.exists2 (fun b run -> Texp_run.pending run > b) before (runs t) then
            failwith "a re-added row did not cancel its pending removal"
        end)
    ops

let prop_bursts =
  Generators.qtest "bursts of unread writes: every reader = model" ~count:40
    (QCheck2.Gen.list_size (QCheck2.Gen.int_range 1 8) phase_gen)
    (fun phases ->
      let t = indexed () in
      let m = { rows = []; ghosts = []; now = 0 } in
      let expire dt =
        m.now <- m.now + dt;
        let dead (_, e) = Time.(e <= Time.of_int m.now) in
        let due = List.sort by_key (List.filter dead m.rows) in
        if Table.expire_upto t (Time.of_int m.now) <> due then failwith "expire_upto";
        m.rows <- List.filter (fun r -> not (dead r)) m.rows;
        m.ghosts <- due @ m.ghosts
      in
      List.iter
        (function
          | Burst (ops, first) ->
            apply_burst t m ops;
            pending_bound t;
            (* Reader 7 is an expiration: [expire_upto] reads first. *)
            if first = 7 then expire 5;
            check_readers ~first t m
          | Expire dt -> expire dt; check_readers t m
          | Lazy_tick dt -> m.now <- m.now + dt; check_readers t m)
        phases;
      true)

(* Two readers under the shared lock, in two domains so they overlap,
   read a run right after a burst, the second starting up to 0.3 ms
   after the first so that the two searches interleave.  Both answers,
   and every later one, must equal the model. *)
let test_concurrent_settle () =
  let lock = Rwlock.create () in
  let rng = Random.State.make [| 54 |] in
  for round = 1 to 60 do
    let t = indexed () in
    let m = { rows = []; ghosts = []; now = 0 } in
    let base = List.init (300 + Random.State.int rng 700) (fun i -> B_add (i, i mod 4, 1 + (i * 37 mod 80))) in
    apply_burst t m base;
    check_readers t m;
    let burst =
      List.init (50 + Random.State.int rng 550) (fun i ->
          B_add (2_000 + i, Random.State.int rng 4, 1 + Random.State.int rng 80))
    in
    Rwlock.with_write lock (fun () -> apply_burst t m burst);
    let go = Atomic.make false and lag = Random.State.float rng 3e-4 in
    let read delay () =
      while not (Atomic.get go) do Domain.cpu_relax () done;
      let until = Unix.gettimeofday () +. delay in
      while Unix.gettimeofday () < until do Domain.cpu_relax () done;
      Rwlock.with_read lock (fun () ->
          List.map
            (fun run ->
              let all = Texp_run.Unbounded in
              let n = Texp_run.count_range run ~lo:all ~hi:all in
              (n, scanned run ~tau:Time.zero ~lo:all ~hi:all))
            (runs t))
    in
    let readers = [ Domain.spawn (read 0.); Domain.spawn (read lag) ] in
    Atomic.set go true;
    let want = List.sort by_key (List.filter (fun (_, e) -> Time.(e > Time.zero)) m.rows) in
    List.iteri
      (fun i answers ->
        List.iter
          (fun (n, rows) ->
            if rows <> want || n <> List.length m.rows then
              Alcotest.failf "round %d: reader %d counted %d and passed %d rows, of %d" round i n
                (List.length rows) (List.length want))
          answers)
      (List.map Domain.join readers);
    check_readers t m
  done

(* ---------- pending sets past the write buffer ---------- *)

let insert t m tu texp =
  Table.insert t tu ~texp;
  m.rows <- (tu, texp) :: List.filter (fun (r, _) -> not (Tuple.equal r tu)) m.rows

let delete t m tu =
  if not (Table.delete t tu) then Alcotest.fail "delete of a held row";
  m.rows <- List.filter (fun (r, _) -> not (Tuple.equal r tu)) m.rows

(* At least [rows] rows into a table indexed on both columns, stopping
   just after a fold: the three runs take the same adds, so each run's
   pending sets are then empty, and the next keys fill a fresh buffer. *)
let folded ~rows =
  let t = indexed () and m = { rows = []; ghosts = []; now = 0 } in
  let k = ref 0 in
  while !k < rows || Texp_run.pending (Table.run t) > 0 do
    incr k;
    insert t m (Tuple.ints [ !k; !k mod 4 ]) (fin (1 + (!k * 37 mod 80)))
  done;
  List.iter (fun run -> if Texp_run.pending run <> 0 then Alcotest.fail "a run is not folded") (runs t);
  (t, m)

let texp_of_model m tu = snd (List.find (fun (r, _) -> Tuple.equal r tu) m.rows)

(* Cancellations that reach past the write buffer.  After a fold,
   [chunk_rows + 44] adds leave the first [chunk_rows] of them in a
   merged level and the rest in the buffer, in every run; so do as many
   deletes of folded rows among the pending removals.  Deleting an added
   row in the level is a removal of a pending add in a level, recorded
   and netted against the add by readers, expirations and the fold (the
   first two hold the largest and the smallest texp); writing the first
   deleted row back as it was cancels a removal in a level, and writing
   the first added row back cancels the removal netted against it.
   After each step every reader of the three runs equals the model; a
   cancelling write lowers every run's pending count, and a removal
   raises it by at most the one removal it records. *)
let test_level_cancels () =
  let t, m = folded ~rows:4_000 in
  let extra = Texp_run.chunk_rows + 44 in
  let added = List.init extra (fun i -> Tuple.ints [ 50_000 + i; i mod 4 ]) in
  let texp i = fin (match i with 0 -> 500 | 1 -> -10 | i -> 1 + (i * 53 mod 80)) in
  List.iteri (fun i tu -> insert t m tu (texp i)) added;
  check_readers t m;
  let step name ~rise f =
    let before = List.map Texp_run.pending (runs t) in
    f ();
    List.iter2
      (fun b run ->
        if Texp_run.pending run > b + rise then
          Alcotest.failf "%s: pending %d, was %d" name (Texp_run.pending run) b)
      before (runs t);
    check_readers t m
  in
  (* Row 3 (texp 80) stays removed, live, through the expiration below
     and into the fold. *)
  List.iter
    (fun i -> step "removal of a pending add in a level" ~rise:1 (fun () -> delete t m (List.nth added i)))
    [ 0; 1; 3 ];
  let deleted = List.init extra (fun i -> Tuple.ints [ i + 1; (i + 1) mod 4 ]) in
  let back i = let tu = List.nth deleted i in (tu, texp_of_model m tu) in
  let first_back = back 0 and last_back = back (extra - 1) in
  List.iter (delete t m) deleted;
  check_readers t m;
  step "an add cancelling a removal in a level" ~rise:(-1) (fun () ->
      insert t m (fst first_back) (snd first_back));
  step "an add cancelling a removal netted against a pending add" ~rise:(-1) (fun () ->
      insert t m (List.hd added) (texp 0));
  step "an add cancelling a removal in the buffer" ~rise:(-1) (fun () ->
      insert t m (fst last_back) (snd last_back));
  let due = List.sort by_key (List.filter (fun (_, e) -> Time.(e <= fin 40)) m.rows) in
  if Table.expire_upto t (fin 40) <> due then Alcotest.fail "expire_upto past a netted add";
  m.rows <- List.filter (fun (_, e) -> Time.(e > fin 40)) m.rows;
  m.ghosts <- due;
  m.now <- 40;
  check_readers t m;
  let k = ref 0 in
  while Texp_run.pending (Table.run t) > 0 do
    incr k;
    insert t m (Tuple.ints [ 70_000 + !k; 0 ]) (fin 100)
  done;
  check_readers t m

(* Every block reachable from [v] within [depth] fields, with its
   fields as they are now. *)
let rec blocks depth r acc =
  if depth = 0 || Obj.is_int r || Obj.tag r >= Obj.no_scan_tag then acc
  else
    let fields = Array.init (Obj.size r) (Obj.field r) in
    Array.fold_left (fun acc f -> blocks (depth - 1) f acc) ((r, fields) :: acc) fields

(* Readers store nothing: every reader of the three runs of a table
   indexed on both columns, run on two domains at once with no lock,
   leaves every field of every run, and of the pending sets, levels and
   buffers it holds, physically as it was.  The runs hold a non-empty
   write buffer and two levels of pending adds, and pending removals. *)
let test_readers_store_nothing () =
  let t, m = folded ~rows:4_000 in
  List.iter (fun (tu, _) -> if Tuple.compare tu (Tuple.ints [ 100; 0 ]) < 0 then delete t m tu) m.rows;
  (* The last writes are adds, and no reader runs before the two below. *)
  for i = 0 to (3 * Texp_run.chunk_rows) + 43 do
    insert t m (Tuple.ints [ 60_000 + i; i mod 4 ]) (fin (1 + (i * 53 mod 80)))
  done;
  let before = List.map (fun run -> blocks 6 (Obj.repr run) []) (runs t) in
  let taus = List.map fin [ -1; 0; 10; 40; 79; 200 ] in
  let bounds =
    let open Texp_run in
    [ Unbounded, Unbounded; Inclusive (Value.int 2), Inclusive (Value.int 2);
      Exclusive (Value.int 0), Unbounded; Unbounded, Exclusive (Value.int 50_100) ]
  in
  let read_all () =
    let n = ref 0 in
    let table = Table.run t in
    for _ = 1 to 3 do
      List.iter
        (fun tau ->
          n := !n + Texp_run.count_upto table tau;
          ignore (Texp_run.min_live_texp table ~tau : Time.t option))
        taus;
      ignore (Texp_run.min_texp table, Texp_run.max_texp table : Time.t option * Time.t option);
      List.iter
        (fun run ->
          n := !n + Texp_run.length run + Texp_run.pending run;
          ignore (Texp_run.key_extrema run : (Value.t * Value.t) option);
          List.iter
            (fun (lo, hi) ->
              n := !n + Texp_run.count_range run ~lo ~hi;
              List.iter
                (fun tau ->
                  Texp_run.scan_range run ~tau ~lo ~hi ~visited:n ~dropped:(ref 0) (fun c _ ->
                      n := !n + Texp_run.chunk_len c))
                taus)
            bounds)
        (runs t)
    done;
    !n
  in
  let go = Atomic.make false in
  let reader () =
    while not (Atomic.get go) do Domain.cpu_relax () done;
    read_all ()
  in
  let readers = [ Domain.spawn reader; Domain.spawn reader ] in
  Atomic.set go true;
  let answers = List.map Domain.join readers in
  if List.length (List.sort_uniq Int.compare answers) <> 1 then Alcotest.fail "the readers disagree";
  List.iteri
    (fun i blocks ->
      List.iter
        (fun (r, fields) ->
          Array.iteri
            (fun j f -> if Obj.field r j != f then Alcotest.failf "run %d: a reader stored into a field" i)
            fields)
        blocks)
    before;
  check_readers t m

let suite =
  [ Alcotest.test_case "schema accessors" `Quick test_schema;
    Alcotest.test_case "insert is update (set semantics)" `Quick test_insert_update;
    Alcotest.test_case "snapshots and eager expiry" `Quick test_snapshot_and_expiry;
    Alcotest.test_case "renewal cancels earlier expiry" `Quick
      test_update_after_expiry_scheduled;
    Alcotest.test_case "vacuum" `Quick test_vacuum;
    prop_snapshot_equals_reference;
    prop_run_matches_model;
    Alcotest.test_case "an expiration that shrinks the run folds" `Quick test_expiry_folds;
    prop_any_keys_ascend;
    prop_bursts;
    Alcotest.test_case "two readers settle one burst" `Quick test_concurrent_settle;
    Alcotest.test_case "cancels reach a merged level: every reader = model" `Quick test_level_cancels;
    Alcotest.test_case "readers store nothing" `Quick test_readers_store_nothing ]
