(* The paper's motivating scenario (Section 2.1) at scale: a personalised
   news service whose engine stores per-topic interest profiles with
   expiration times, runs entirely through the sqlx query language, and
   regenerates profiles from an expiration trigger.

   Run with: dune exec examples/news_service.exe *)

open Expirel_core
open Expirel_paper
open Expirel_storage
open Expirel_sqlx
open Expirel_workload

let section title = Printf.printf "\n=== %s ===\n" title

let run t sql =
  match Interp.exec_sql t sql with
  | Ok outcome -> outcome
  | Error msg -> failwith (Printf.sprintf "%s: %s" sql msg)

let show t sql =
  Printf.printf "sqlx> %s\n%s\n" sql (Interp.render (run t sql))

let () =
  let t = Interp.create () in
  let db = Interp.database t in

  section "Schema and seed data (Figure 1 plus a niche topic)";
  List.iter
    (fun sql -> ignore (run t sql))
    [ "CREATE TABLE pol (uid, deg)";
      "CREATE TABLE el (uid, deg)";
      "INSERT INTO pol VALUES (1, 25) EXPIRES 10";
      "INSERT INTO pol VALUES (2, 25) EXPIRES 15";
      "INSERT INTO pol VALUES (3, 35) EXPIRES 10";
      "INSERT INTO el VALUES (1, 75) EXPIRES 5";
      "INSERT INTO el VALUES (2, 85) EXPIRES 3";
      "INSERT INTO el VALUES (4, 90) EXPIRES 2" ];
  show t "SELECT * FROM pol";

  section "Profile regeneration via expiration triggers (Section 1)";
  (* When a profile expires, the engine re-derives a colder one from past
     behaviour instead of asking the user again. *)
  let regenerated = ref 0 in
  Trigger.register (Database.triggers db) ~name:"regenerate" ~table:"pol"
    (fun e ->
      incr regenerated;
      match Tuple.to_list e.Trigger.tuple with
      | [ uid; Value.Int deg ] ->
        let colder = max 5 (deg - 10) in
        Database.insert db "pol"
          (Tuple.of_list [ uid; Value.Int colder ])
          ~texp:(Time.add e.Trigger.fired_at (Time.of_int 20))
      | _ -> ());
  ignore (run t "ADVANCE TO 12");
  Printf.printf "advanced to 12: %d profile(s) regenerated automatically\n"
    !regenerated;
  show t "SELECT * FROM pol";

  section "Materialised views maintained by expiration alone";
  ignore (run t "CREATE VIEW crossover AS \
                 SELECT pol.uid FROM pol JOIN el ON pol.uid = el.uid");
  (match run t "CREATE VIEW hist AS SELECT deg, COUNT(*) FROM pol GROUP BY deg" with
   | Interp.Msg m -> print_endline m
   | Interp.Rows _ -> ());
  show t "SHOW VIEW hist";
  ignore (run t "ADVANCE TO 40");
  print_endline "-- after advancing to 40 (regenerated profiles expired too):";
  show t "SHOW VIEW hist";

  section "Scaled-up run: 2000 users, two topics";
  let rng = Random.State.make [| 2006 |] in
  let core, niche =
    News.two_topics ~rng ~users:2000
      ~core_ttl:(Gen.Uniform_ttl (200, 400))
      ~niche_ttl:(Gen.Uniform_ttl (10, 50))
      ~now:(Database.now db)
  in
  let (_ : Table.t) = Database.create_table db ~name:"sports" ~columns:News.columns in
  let (_ : Table.t) = Database.create_table db ~name:"playoffs" ~columns:News.columns in
  Relation.iter (fun tuple texp -> Database.insert db "sports" tuple ~texp) core;
  Relation.iter (fun tuple texp -> Database.insert db "playoffs" tuple ~texp) niche;
  Printf.printf "loaded %d core and %d niche profiles\n" (Relation.cardinal core)
    (Relation.cardinal niche);
  let engaged =
    Algebra.(
      project [ 1 ]
        (select
           (Predicate.Cmp (Predicate.Gt, Predicate.Col 2, Predicate.Const (Value.int 50)))
           (base "playoffs")))
  in
  let casual = Algebra.(diff (project [ 1 ] (base "sports")) engaged) in
  let { Eval.relation; texp } = Database.query db casual in
  Printf.printf
    "sports-but-not-playoff-fans: %d users; materialisation valid until %s\n"
    (Relation.cardinal relation) (Time.to_string texp);
  let schedule =
    View.maintenance_times ~env:(Database.env db) ~from:(Database.now db)
      ~horizon:(Time.add (Database.now db) (Time.of_int 200)) casual
  in
  Printf.printf
    "recomputation schedule over the next 200 ticks: %d refresh(es)\n"
    (List.length schedule);
  let patched =
    Patch.create ~env:(Database.env db) ~tau:(Database.now db)
      ~left:Algebra.(project [ 1 ] (base "sports")) ~right:engaged
  in
  Printf.printf
    "with patching instead: 0 refreshes, a %d-entry helper queue (Theorem 3)\n"
    (Patch.pending patched)
