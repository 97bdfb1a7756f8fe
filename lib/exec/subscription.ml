open Expirel_core
open Expirel_storage

type event =
  | Row_expired of {
      subscription : string;
      tuple : Tuple.t;
      at : Time.t;
    }
  | Row_appeared of {
      subscription : string;
      tuple : Tuple.t;
      texp : Time.t;
      at : Time.t;
    }
  | Refreshed of {
      subscription : string;
      at : Time.t;
    }

type handler = event -> unit

module Tmap = Map.Make (Time)
module Rows = Map.Make (Tuple)

(* [n] more (or, negative, fewer) copies of [texp] in a multiset: one
   descent. *)
let bag texp n b =
  Tmap.update texp
    (fun c ->
      let c = n + Option.value c ~default:0 in
      if c = 0 then None else Some c)
    b

module Keys = Group_map

(* One group's share of a grouped answer: its output row, if HAVING
   keeps it, and its change point. *)
type share = (Tuple.t * Time.t) option * Time.t

let no_share : share = (None, Time.Inf)
let same_row = Option.equal (fun (t, e) (t', e') -> Tuple.equal t t' && Time.equal e e')

(* A grouped COUNT answer kept as per-group state: [shares] what each
   group last contributed, [images] per output row the row texps of the
   groups projected onto it (the row's texp is their max), [changes]
   every group's change point (their min is the result's texp(e)),
   [answer] the result they make.  When [distinct] (the projection keeps
   every GROUP BY column), no two groups share an output row: each
   group's row is written into the answer as it is, and [images] stays
   empty. *)
type counts = {
  output : Partial_agg.group -> share;
  distinct : bool;
  shares : share Keys.t;
  images : int Tmap.t Rows.t;
  changes : int Tmap.t;
  answer : Eval.result;
}

let counts ~output ~distinct ~arity =
  { output;
    distinct;
    shares = Keys.empty;
    images = Rows.empty;
    changes = Tmap.empty;
    answer = { Eval.relation = Relation.empty ~arity; texp = Time.Inf }
  }

let counts_answer c = c.answer

(* [c] with each listed group as now given ([None]: gone): a group whose
   share moved takes its old row and change point out of [images] and
   [changes] and puts its new ones in, and only an output row whose texp
   moved is rewritten — O(log) per group, never a pass over the groups.
   Also answers the output rows touched, for [diff]. *)
let regroup c groups =
  let shares = ref c.shares and images = ref c.images and changes = ref c.changes in
  let touched = ref [] and relation = ref c.answer.Eval.relation in
  let write t e =
    relation := Relation.replace t ~texp:e !relation;
    touched := t :: !touched
  and erase t =
    relation := Relation.remove t !relation;
    touched := t :: !touched
  in
  let image tuple f =
    let b = f (Option.value (Rows.find_opt tuple !images) ~default:Tmap.empty) in
    images := if Tmap.is_empty b then Rows.remove tuple !images else Rows.add tuple b !images;
    touched := tuple :: !touched
  in
  List.iter
    (fun (key, group) ->
      let row, change = Option.value (Keys.find_opt key !shares) ~default:no_share in
      let ((row', change') as share) = Option.fold group ~none:no_share ~some:c.output in
      let moved = not (same_row row row') in
      if moved || not (Time.equal change change') then begin
        shares :=
          if Option.is_none row' && Time.is_infinite change' then Keys.remove key !shares
          else Keys.add key share !shares;
        if not (Time.equal change change') then changes := bag change' 1 (bag change (-1) !changes);
        if moved then
          match row, row' with
          | Some (t, _), Some (t', e') when c.distinct && Tuple.equal t t' -> write t' e'
          | _ when c.distinct ->
            Option.iter (fun (t, _) -> erase t) row;
            Option.iter (fun (t, e) -> write t e) row'
          | Some (t, e), Some (t', e') when Tuple.equal t t' -> image t (fun b -> bag e' 1 (bag e (-1) b))
          | _ ->
            Option.iter (fun (t, e) -> image t (bag e (-1))) row;
            Option.iter (fun (t, e) -> image t (bag e 1)) row'
      end)
    groups;
  let relation =
    if c.distinct then !relation
    else
      List.fold_left
        (fun r tuple ->
          let texp = Option.map (fun b -> fst (Tmap.max_binding b)) (Rows.find_opt tuple !images) in
          if Option.equal Time.equal texp (Relation.texp_opt r tuple) then r
          else
            match texp with
            | None -> Relation.remove tuple r
            | Some texp -> Relation.replace tuple ~texp r)
        c.answer.Eval.relation !touched
  in
  let texp = Option.fold (Tmap.min_binding_opt !changes) ~none:Time.Inf ~some:fst in
  ( { c with shares = !shares; images = !images; changes = !changes;
             answer = { Eval.relation; texp } },
    !touched )

let rebuild c groups =
  let empty =
    counts ~output:c.output ~distinct:c.distinct
      ~arity:(Relation.arity c.answer.Eval.relation)
  in
  if not c.distinct then
    fst (regroup empty (List.map (fun (g : Partial_agg.group) -> (g.key, Some g)) groups))
  else
    let shares, rows, changes =
      List.fold_left
        (fun (shares, rows, changes) (g : Partial_agg.group) ->
          match c.output g with
          | None, change when Time.is_infinite change -> (shares, rows, changes)
          | (row, change) as share ->
            ( (g.key, share) :: shares,
              Option.fold row ~none:rows ~some:(fun r -> r :: rows),
              bag change 1 changes ))
        ([], [], Tmap.empty) groups
    in
    { empty with
      shares = Keys.of_ascending (List.rev shares);
      changes;
      answer =
        { Eval.relation = Relation.of_list ~arity:(Relation.arity c.answer.Eval.relation) (List.rev rows);
          texp = Option.fold (Tmap.min_binding_opt changes) ~none:Time.Inf ~some:fst
        }
    }

(* The rows of [r] among [tuples]. *)
let rows_in r tuples =
  List.fold_left
    (fun acc tuple ->
      Option.fold (Relation.texp_opt r tuple) ~none:acc ~some:(fun texp ->
          Relation.add tuple ~texp acc))
    (Relation.empty ~arity:(Relation.arity r)) tuples

type counted = {
  table : string;
  member : Tuple.t -> Value.t list option;
      (* a row's group key, when the scan's predicate keeps the row *)
  mutable groups : Partial_agg.standing;
  mutable counts : counts;
  mutable stamp : int * int * Time.t;
      (* the catalog's and the table's generations and the clock when
         last kept current *)
}

(* How a write reaches an entry: a rerun at the clock, the written row as
   its own delta (see [delta_of]), or the group it touches. *)
type feed =
  | Rerun
  | Delta of (Tuple.t -> Tuple.t option)
  | Counted of counted

type entry = {
  compiled : Plan.compiled;
  handler : handler option;  (* [None]: nobody listens, build no events *)
  feed : feed;
  mutable result : Eval.result;  (* as of the last delivery or write *)
}

type t = {
  db : Database.t;
  watches : (string, entry) Hashtbl.t;
}

let create db = { db; watches = Hashtbl.create 8 }

(* [Base r] or [Select (p, Base r)], either under a [Project] permuting
   r's columns: [row] maps a written row of r to its result row, if any. *)
let delta_of db logical =
  let delta cols r keep =
    let all = List.init (Table.arity (Database.table_exn db r)) succ in
    let cols = Option.value cols ~default:all in
    if List.sort compare cols <> all then None
    else Some (fun row -> if keep row then Some (Tuple.project cols row) else None)
  in
  let rec go cols = function
    | Algebra.Project (c, e) when cols = None -> go (Some c) e
    | Algebra.Base r -> delta cols r (fun _ -> true)
    | Algebra.Select (p, Algebra.Base r) -> delta cols r (Predicate.eval p)
    | _ -> None
  in
  go None logical

let counted compiled =
  match compiled.Plan.physical with
  | Plan.Grouped_aggregate { func = Aggregate.Count; child = Plan.Scan _; _ } -> true
  | _ -> false

let stamp db k =
  Option.map
    (fun tbl -> (Database.generation db, Table.generation tbl, Database.now db))
    (Database.table db k.table)

(* A fused grouped COUNT straight over a scan: its group state, built
   from the table's rows live at the clock, and its answer. *)
let counted_of db compiled =
  match compiled.Plan.physical with
  | Plan.Grouped_aggregate
      { group; func = Aggregate.Count as func; having; projection;
        child = Plan.Scan { name; pred; access = _ } } ->
    let table = Database.table_exn db name in
    let output =
      Partial_agg.finalizer ~group ~func ~child_arity:(Table.arity table) ?having
        ~projection
    in
    let keeps row = Option.fold pred ~none:true ~some:(fun p -> Predicate.eval p row) in
    let member row = if keeps row then Some (List.map (Tuple.attr row) group) else None in
    let add row texp st =
      Option.fold (member row) ~none:st ~some:(fun key ->
          Partial_agg.standing_change st key texp 1)
    in
    let groups =
      Table.fold_live table ~tau:(Database.now db) add
        Partial_agg.standing_empty
    in
    let counts, _ =
      regroup
        (counts ~output
           ~distinct:(Partial_agg.distinct_rows ~group ~projection)
           ~arity:(List.length projection))
        (List.map (fun g -> (g.Partial_agg.key, Some g)) (Partial_agg.standing_partial groups))
    in
    Some
      { table = name;
        member;
        groups;
        counts;
        stamp = (Database.generation db, Table.generation table, Database.now db)
      }
  | _ -> None

let prepare ?handler t compiled =
  match counted_of t.db compiled with
  | Some k -> { compiled; handler; feed = Counted k; result = k.counts.answer }
  | None ->
    let result = Executor.run ~db:t.db compiled in
    let feed =
      Option.fold (delta_of t.db compiled.Plan.logical) ~none:Rerun ~some:(fun d ->
          Delta d)
    in
    { compiled; handler; feed; result }

let install t ~name entry = Hashtbl.replace t.watches name entry

let subscribe ?handler t ~name compiled =
  if Hashtbl.mem t.watches name then
    invalid_arg (Printf.sprintf "Subscription.subscribe: %s exists" name)
  else install t ~name (prepare ?handler t compiled)

let unsubscribe t name =
  Hashtbl.mem t.watches name && (Hashtbl.remove t.watches name; true)

let length t = Hashtbl.length t.watches

let names t =
  Hashtbl.fold (fun name _ acc -> name :: acc) t.watches []
  |> List.sort String.compare

let reseed t =
  List.iter
    (fun name ->
      let e = Hashtbl.find t.watches name in
      install t ~name (prepare ?handler:e.handler t e.compiled))
    (names t)

let result t name = Option.map (fun e -> e.result) (Hashtbl.find_opt t.watches name)

let fresh t name =
  match Hashtbl.find_opt t.watches name with
  | Some ({ feed = Counted k; _ } as e) when stamp t.db k = Some k.stamp -> Some e
  | Some _ | None -> None

let prune t =
  Hashtbl.filter_map_inplace
    (fun _ e ->
      match e.feed with
      | Counted k when stamp t.db k <> Some k.stamp -> None
      | Counted _ | Rerun | Delta _ -> Some e)
    t.watches

let answer e = e.result

let standing e =
  match e.feed with
  | Counted k -> k.groups
  | Rerun | Delta _ -> invalid_arg "Subscription.standing: not a grouped COUNT"

let groups t =
  Hashtbl.fold
    (fun _ e n ->
      match e.feed with
      | Counted k -> n + Partial_agg.standing_groups k.groups
      | Rerun | Delta _ -> n)
    t.watches 0

let readers t table =
  List.filter
    (fun name ->
      let e = Hashtbl.find t.watches name in
      List.mem table (Algebra.base_names e.compiled.Plan.logical))
    (names t)

(* [fresh] replacing [old] at [at]: each live old row that [fresh] drops
   or re-dates expires, then [between] runs, then every fresh row but
   the unchanged survivors (fresh rows are live at [at]) appears. *)
let diff ~name ~at ~emit ~between old fresh =
  let same relation tuple texp =
    Option.equal Time.equal (Relation.texp_opt relation tuple) (Some texp)
  in
  Relation.iter
    (fun tuple texp ->
      if Time.(texp > at) && not (same fresh tuple texp) then
        emit (Row_expired { subscription = name; tuple; at }))
    old;
  between ();
  Relation.iter
    (fun tuple texp ->
      if not (same old tuple texp) then
        emit (Row_appeared { subscription = name; tuple; texp; at }))
    fresh

(* The one change-time walk, over a standing query's state: [next] is
   the state's next change time, [step at] fires every change at that
   instant — expirations, then the refresh, then appearances — and
   answers the state after it. *)
let steps ~next ~step ~to_ ~settle state =
  let rec go state =
    let at = next state in
    if Time.(at > to_) || Time.is_infinite at then state
    else
      let state = step at state in
      if settle at then go state else state
  in
  go state

(* A plan's walk holds the rows of the current result that expire
   before its next refresh or the target, in [(texp, tuple)] order,
   gathered once per walk and again after each refresh, so a step
   touches only the rows it fires.  A refresh at [texp(e)] runs the plan
   at that instant. *)
let walk ~db ~name compiled result ~from ~to_ ~emit ~settle =
  (* The rows expiring in [(after, min to_ texp(e)]]: a fold over only
     the subtrees holding rows due by then, in tuple order, and a stable
     sort of those by texp. *)
  let due result ~after =
    let upto = Time.min to_ result.Eval.texp in
    Relation.fold_expired upto
      (fun tuple texp acc -> if Time.(texp > after) then (texp, tuple) :: acc else acc)
      result.Eval.relation []
    |> List.rev
    |> List.stable_sort (fun (a, _) (b, _) -> Time.compare a b)
  in
  let next (result, due_rows) =
    match due_rows with
    | (texp, _) :: _ -> Time.min texp result.Eval.texp
    | [] -> result.Eval.texp
  in
  let step at (result, due_rows) =
    (* Expirations at this instant fire first, in tuple order. *)
    let rec fire = function
      | (texp, tuple) :: rest when Time.equal texp at ->
        emit (Row_expired { subscription = name; tuple; at });
        fire rest
      | rest -> rest
    in
    let due_rows = fire due_rows in
    if Time.(result.Eval.texp <= at) then begin
      (* The materialisation is invalid from here: refresh. *)
      let refreshed = Executor.run ~tau:at ~db compiled in
      diff ~name ~at ~emit
        ~between:(fun () -> emit (Refreshed { subscription = name; at }))
        result.Eval.relation refreshed.Eval.relation;
      (refreshed, due refreshed ~after:at)
    end
    else (result, due_rows)
  in
  fst (steps ~next ~step ~to_ ~settle (result, due result ~after:from))

(* A grouped COUNT's step: the groups whose earliest member expires at
   [at] lose those members, and only their output rows are diffed, when
   anyone listens. *)
let counted_step ~name ~emit at (groups, c) =
  let groups, keys = Partial_agg.standing_expire groups at in
  let after, touched =
    regroup c (List.map (fun key -> (key, Partial_agg.standing_group groups key)) keys)
  in
  Option.iter
    (fun emit ->
      let old = rows_in c.answer.Eval.relation touched
      and fresh = rows_in after.answer.Eval.relation touched in
      Relation.iter
        (fun tuple texp ->
          if Time.equal texp at then
            emit (Row_expired { subscription = name; tuple; at }))
        old;
      diff ~name ~at ~emit
        ~between:(fun () ->
          if Time.(c.answer.Eval.texp <= at) then
            emit (Refreshed { subscription = name; at }))
        old fresh)
    emit;
  (groups, after)

let rows t name =
  let e = Hashtbl.find t.watches name in
  Relation.cardinal (Relation.exp (Database.now t.db) e.result.Eval.relation)

type count = string -> Time.t -> before:int -> after:int -> bool

(* Walks entry [e] from the clock to [to_], firing its events through
   [emit] when given and, with [count], its live rows through [count]
   once per instant; answers the function that keeps where the walk
   stopped.  A plan's entry keeps only the rows live at [to_]: the walk
   fired every other one, and a monotone watch, never refreshed, would
   otherwise hold every row it ever had. *)
let walk_entry t ~name e ~to_ ~emit ~count =
  let emit, settle =
    match count with
    | None -> (emit, fun _ -> true)
    | Some count ->
      let count = count name and live = ref (rows t name) in
      let settled = ref !live in
      ( Some
          (fun event ->
            (match event with
             | Row_expired _ -> decr live
             | Row_appeared _ -> incr live
             | Refreshed _ -> ());
            Option.iter (fun emit -> emit event) emit),
        fun at ->
          let before = !settled in
          settled := !live;
          count at ~before ~after:!live )
  in
  match e.feed with
  | Counted k ->
    let groups, counts =
      steps
        ~next:(fun (groups, _) -> Partial_agg.standing_next groups)
        ~step:(counted_step ~name ~emit) ~to_ ~settle (k.groups, k.counts)
    in
    fun () ->
      e.result <- counts.answer;
      k.groups <- groups;
      k.counts <- counts
  | Rerun | Delta _ ->
    let r =
      walk ~db:t.db ~name e.compiled e.result ~from:(Database.now t.db) ~to_
        ~emit:(Option.value emit ~default:ignore) ~settle
    in
    fun () -> e.result <- { r with Eval.relation = Relation.exp to_ r.Eval.relation }

let forecast_events ?count t ~until =
  if Time.is_infinite until || Time.(until <= Database.now t.db) then 0
  else begin
    let events = ref 0 in
    List.iter
      (fun name ->
        ignore
          (walk_entry t ~name (Hashtbl.find t.watches name) ~to_:until
             ~emit:(Some (fun _ -> incr events)) ~count
            : unit -> unit))
      (names t);
    !events
  end

(* Replay the continuous queries' change times before the storage
   physically removes rows (eager policy): refreshes at intermediate
   instants must see everything that was live then.  Every walk reaches
   the target, whatever [count] answers. *)
let deliver_until ?count t target =
  if Time.is_infinite target then
    invalid_arg "Subscription.deliver_until: infinite time"
  else if Time.(target < Database.now t.db) then
    invalid_arg "Subscription.deliver_until: moving backwards"
  else
    let count =
      Option.map
        (fun count name ->
          let count = count name in
          fun at ~before ~after ->
            ignore (count at ~before ~after : bool);
            true)
        count
    in
    List.iter
      (fun name ->
        let e = Hashtbl.find t.watches name in
        walk_entry t ~name e ~to_:target ~emit:e.handler ~count ())
      (names t)

let deliver_span = Expirel_obs.Trace.name "deliver"

(* A delta entry diffs the written row's result row before and after, a
   grouped COUNT the written row's group; any other entry reruns at the
   clock and diffs the whole result.  An entry nobody listens to only
   keeps its state.  A prior texp at or before the clock is a row
   already expired, which no state holds. *)
let write ?trace t ~before record =
  let at = Database.now t.db in
  let written table tuple texp =
    let names = readers t table in
    if names <> [] then
      Expirel_obs.Trace.span trace deliver_span @@ fun () ->
      List.iter
        (fun name ->
          let e = Hashtbl.find t.watches name in
          let old = e.result.Eval.relation in
          (* [old ()] and [fresh ()] build the rows to compare, only
             when someone listens. *)
          let diff old fresh =
            Option.iter
              (fun emit -> diff ~name ~at ~emit ~between:ignore (old ()) (fresh ()))
              e.handler
          in
          match e.feed with
          | Rerun ->
            let fresh = Executor.run ~db:t.db e.compiled in
            diff (fun () -> old) (fun () -> fresh.Eval.relation);
            e.result <- fresh
          | Delta row ->
            Option.iter
              (fun tuple ->
                let put r =
                  Option.fold ~none:r ~some:(fun e -> Relation.add tuple ~texp:e r)
                in
                let none = Relation.empty ~arity:(Relation.arity old) in
                diff
                  (fun () -> put none (Relation.texp_opt old tuple))
                  (fun () -> put none texp);
                let relation = put (Relation.remove tuple old) texp in
                e.result <- { e.result with Eval.relation })
              (row tuple)
          | Counted k ->
            Option.iter
              (fun key ->
                let change n texp groups =
                  match texp with
                  | Some e when Time.(e > at) -> Partial_agg.standing_change groups key e n
                  | Some _ | None -> groups
                in
                let groups = change 1 texp (change (-1) before k.groups) in
                let counts, touched =
                  regroup k.counts [ (key, Partial_agg.standing_group groups key) ]
                in
                diff
                  (fun () -> rows_in k.counts.answer.Eval.relation touched)
                  (fun () -> rows_in counts.answer.Eval.relation touched);
                e.result <- counts.answer;
                k.groups <- groups;
                k.counts <- counts)
              (k.member tuple);
            Option.iter (fun s -> k.stamp <- s) (stamp t.db k))
        names
  in
  match record with
  | Wal.Insert { table; tuple; texp } -> written table tuple (Some texp)
  | Wal.Delete { table; tuple } -> written table tuple None
  | Wal.Advance _ ->
    (* The walk to the target ran first; a state it did not advance is
       left unstamped, for its next reader to rebuild. *)
    Hashtbl.iter
      (fun _ e ->
        match e.feed with
        | Counted k when Time.(Partial_agg.standing_next k.groups > at) ->
          Option.iter (fun s -> k.stamp <- s) (stamp t.db k)
        | Counted _ | Rerun | Delta _ -> ())
      t.watches
  | Wal.Create_table _ | Wal.Drop_table _ -> ()
