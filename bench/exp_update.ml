(* Experiment exp-update (future work, realised): maintaining a
   materialised view under a stream of base-relation updates, comparing
   delta propagation (Maintained) against recomputing the expression at
   every event.

   Expected shape: per-event delta cost is small and stays flat as the
   base grows, while recompute-per-event grows with the base; both give
   byte-identical results (property-tested). *)

open Expirel_core
open Expirel_paper
open Expirel_workload

let views =
  [ "sessions per user (agg count)",
    Algebra.(aggregate [ 2 ] Aggregate.Count (base "sessions"));
    "idle users (diff)",
    Algebra.(diff (project [ 2 ] (base "users")) (project [ 2 ] (base "sessions")));
    "active pairs (join)",
    (* sessions.uid (position 2) = users.uid (position 4 of the pair) *)
    Algebra.(join (Predicate.eq_cols 2 4) (base "sessions") (base "users")) ]

let build_events ~rng ~logins ~horizon =
  Sessions.timeline ~rng ~users:60 ~logins ~horizon ~activity_rate:1.5

let run_maintained expr bindings events =
  let v =
    ref (Maintained.materialise ~env:(Eval.env_of_list bindings) ~tau:Time.zero expr)
  in
  let (), seconds =
    Bench_util.time_it (fun () ->
        List.iter
          (fun event ->
            let at = Time.of_int (Sessions.event_time event) in
            if Time.(at > Maintained.now !v) then v := Maintained.advance !v ~to_:at;
            Sessions.apply_event ~timeout:25
              ~insert:(fun tuple ~texp ->
                v := Maintained.insert !v ~relation:"sessions" tuple ~texp)
              event)
          events)
  in
  seconds, Maintained.stats !v, Relation.cardinal (Maintained.read !v)

let run_recompute expr bindings events =
  let sessions = ref (List.assoc "sessions" bindings) in
  let result = ref (Relation.empty ~arity:1) in
  let (), seconds =
    Bench_util.time_it (fun () ->
        List.iter
          (fun event ->
            let at = Time.of_int (Sessions.event_time event) in
            Sessions.apply_event ~timeout:25
              ~insert:(fun tuple ~texp ->
                sessions := Relation.replace tuple ~texp !sessions)
              event;
            let env name =
              if String.equal name "sessions" then Some !sessions
              else List.assoc_opt name bindings
            in
            result := Eval.relation_at ~env ~tau:at expr)
          events)
  in
  seconds, !result

let sweep () =
  Bench_util.section
    "Experiment exp-update: incremental maintenance under updates";
  let users =
    Relation.of_list ~arity:2
      (List.init 60 (fun i -> Tuple.ints [ 100 + i; i + 1 ], Time.Inf))
  in
  List.iter
    (fun logins ->
      Bench_util.subsection
        (Printf.sprintf "%d logins (+ activity renewals) over 400 ticks" logins);
      let rows =
        List.map
          (fun (name, expr) ->
            let rng = Bench_util.rng 90 in
            let events = build_events ~rng ~logins ~horizon:400 in
            let bindings =
              [ "sessions", Relation.empty ~arity:2; "users", users ]
            in
            let m_seconds, stats, cardinal = run_maintained expr bindings events in
            let r_seconds, _ = run_recompute expr bindings events in
            [ name;
              string_of_int (List.length events);
              Bench_util.f2 (m_seconds *. 1e3);
              Bench_util.f2 (r_seconds *. 1e3);
              string_of_int (List.assoc "delta-upserts" stats);
              string_of_int (List.assoc "local-refreshes" stats);
              string_of_int cardinal ])
          views
      in
      Bench_util.table
        ~headers:[ "view"; "events"; "maintained ms"; "recompute ms";
                   "delta upserts"; "local refreshes"; "final rows" ]
        rows)
    [ 200; 800; 3200 ];
  print_endline
    "\nShape check: recompute-per-event cost grows with the base relation\n\
     while delta maintenance stays near-flat; non-monotonic nodes refresh\n\
     only locally (from materialised children), never re-reading the\n\
     sources — the paper's independence goal preserved under updates."

let run_all () = sweep ()
