(* The seeded sessions/authz workload generator.

   Everything the benchmark sends is decided here, from the workload and
   the seed alone: the preloaded rows, each connection's statement
   stream and the query shapes the correctness gate replays.  The
   program under test only ever receives the generated SQL (or, for
   scrapes and horizon polls, the matching wire request). *)

type workload =
  | Authz_check
  | Session_churn
  | Cluster_fanout

let workloads =
  [ ("authz-check", Authz_check);
    ("session-churn", Session_churn);
    ("cluster-fanout", Cluster_fanout) ]

let workload_name w = fst (List.find (fun (_, w') -> w' = w) workloads)

(* What a request is, for latency accounting: one latency distribution
   per kind. *)
type kind =
  | Check
  | List
  | Write
  | Logout
  | Agg
  | Tick
  | Scrape
  | Horizon

let kinds = [ Check; List; Write; Logout; Agg; Tick; Scrape; Horizon ]

let kind_name = function
  | Check -> "check"
  | List -> "list"
  | Write -> "write"
  | Logout -> "logout"
  | Agg -> "agg"
  | Tick -> "advance"
  | Scrape -> "scrape"
  | Horizon -> "horizon"

(* [key] is the sid a check, write or logout names, the uid a listing
   names, and -1 otherwise.  Scrapes and horizon polls are wire requests
   of their own and carry no SQL. *)
type op = {
  kind : kind;
  sql : string;
  key : int;
}

(* The choices a mix weighs; login and refresh are both writes. *)
type choice =
  | C_check
  | C_list
  | C_login
  | C_refresh
  | C_logout
  | C_agg
  | C_tick
  | C_scrape
  | C_horizon

let kind_of_choice = function
  | C_check -> Check
  | C_list -> List
  | C_login | C_refresh -> Write
  | C_logout -> Logout
  | C_agg -> Agg
  | C_tick -> Tick
  | C_scrape -> Scrape
  | C_horizon -> Horizon

type spec = {
  sessions : int;  (** rows preloaded before the load, sids [0, sessions) *)
  users : int;  (** uid of a session is [sid mod users] *)
  preload_texp : int * int;  (** inclusive range of preloaded texps *)
  ttl : int * int;  (** inclusive range of the TTL every write carries *)
  mix : (choice * int) list;  (** weights in tenths of a percent *)
  ops_per_second : int;
      (** requests per second of [--seconds]: fixes the op count, sized
          so a run measures about [--seconds] on a 2-core machine *)
  subscribe : bool;
      (** connection 0 holds a live SUBSCRIBE over a tenth of the users *)
  shards : int;  (** 0 = one in-process server, else a coordinator *)
}

let spec = function
  | Authz_check ->
    (* Expirations far beyond the run's ticks: nothing expires, so no
       full-table snapshot is ever rebuilt. *)
    { sessions = 100_000;
      users = 10_000;
      preload_texp = (1_000_000, 2_000_000);
      ttl = (1_000_000, 2_000_000);
      mix =
        [ (C_check, 805); (C_list, 100); (C_login, 45); (C_refresh, 45);
          (C_tick, 5) ];
      ops_per_second = 22_000;
      subscribe = false;
      shards = 0
    }
  | Session_churn ->
    (* Preloaded sessions expire over the first 1000 ticks and writes
       live 500-1500 ticks, so the table stays near 10^4 rows while
       rows expire at every tick. *)
    { sessions = 10_000;
      users = 1_000;
      preload_texp = (1, 1_000);
      ttl = (500, 1_500);
      mix =
        [ (C_login, 150); (C_refresh, 150); (C_logout, 50); (C_check, 390);
          (C_agg, 100); (C_list, 100); (C_tick, 40); (C_scrape, 10);
          (C_horizon, 10) ];
      ops_per_second = 330;
      subscribe = true;
      shards = 0
    }
  | Cluster_fanout ->
    { sessions = 10_000;
      users = 1_000;
      preload_texp = (1_000_000, 2_000_000);
      ttl = (1_000_000, 2_000_000);
      mix =
        [ (C_check, 700); (C_refresh, 180); (C_list, 60); (C_agg, 30);
          (C_tick, 30) ];
      ops_per_second = 430;
      subscribe = false;
      shards = 3
    }

let connections = 2

let uid_of spec sid = sid mod spec.users

let check_sql sid = Printf.sprintf "SELECT sid, uid FROM sessions WHERE sid = %d" sid
let list_sql uid = Printf.sprintf "SELECT sid, uid FROM sessions WHERE uid = %d" uid
let agg_sql = "SELECT uid, COUNT(*) FROM sessions GROUP BY uid"
let state_sql = "SELECT sid, uid FROM sessions"

let subscription_sql spec =
  Printf.sprintf "SELECT sid, uid FROM sessions WHERE uid < %d"
    (max 1 (spec.users / 10))

let schema =
  [ "CREATE TABLE sessions (sid, uid)";
    "CREATE INDEX ON sessions (sid)";
    "CREATE INDEX ON sessions (uid)" ]

(* Independent streams per purpose, all derived from the seed. *)
let rng ~seed ~stream = Random.State.make [| 0x5e55; seed; stream |]

let uniform st (lo, hi) = lo + Random.State.int st (hi - lo + 1)

(* Exactly [ops] choices in the mix's proportions (rounding remainders
   go to the heaviest choices), in seeded random order: every seed runs
   the same number of each op, so seeds differ only in order and keys. *)
let shuffled_mix st mix ~ops =
  let total = List.fold_left (fun acc (_, w) -> acc + w) 0 mix in
  let counts = List.map (fun (c, w) -> (c, w * ops / total, w)) mix in
  let short = ops - List.fold_left (fun acc (_, n, _) -> acc + n) 0 counts in
  let by_weight = List.stable_sort (fun (_, _, a) (_, _, b) -> compare b a) counts in
  let choices =
    Array.of_list
      (List.concat
         (List.mapi
            (fun i (c, n, _) -> List.init (if i < short then n + 1 else n) (fun _ -> c))
            by_weight))
  in
  for i = Array.length choices - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = choices.(i) in
    choices.(i) <- choices.(j);
    choices.(j) <- x
  done;
  choices

(* (sid, uid, texp) for every preloaded session. *)
let preload spec ~seed =
  let st = rng ~seed ~stream:1 in
  Array.init spec.sessions (fun sid ->
      (sid, uid_of spec sid, uniform st spec.preload_texp))

(* Connection [conn]'s statement stream.  Fresh logins take sids past
   the preloaded range, interleaved by connection so the two streams
   never log in the same session. *)
let stream spec ~seed ~conn ~ops =
  let st = rng ~seed ~stream:(100 + conn) in
  let logins = ref 0 in
  Array.map
    (fun choice ->
      let kind = kind_of_choice choice in
      match choice with
      | C_check ->
        let sid = Random.State.int st spec.sessions in
        { kind; sql = check_sql sid; key = sid }
      | C_list ->
        let uid = Random.State.int st spec.users in
        { kind; sql = list_sql uid; key = uid }
      | C_login | C_refresh ->
        let sid =
          if choice = C_refresh then Random.State.int st spec.sessions
          else begin
            incr logins;
            spec.sessions + (!logins * connections) + conn
          end
        in
        { kind;
          sql =
            Printf.sprintf "INSERT INTO sessions VALUES (%d, %d) TTL %d" sid
              (uid_of spec sid) (uniform st spec.ttl);
          key = sid
        }
      | C_logout ->
        let sid = Random.State.int st spec.sessions in
        { kind; sql = Printf.sprintf "DELETE FROM sessions WHERE sid = %d" sid;
          key = sid }
      | C_agg -> { kind; sql = agg_sql; key = -1 }
      | C_tick -> { kind; sql = "TICK 1"; key = -1 }
      | C_scrape -> { kind; sql = ""; key = -1 }
      | C_horizon -> { kind; sql = ""; key = -1 })
    (shuffled_mix st spec.mix ~ops)

let streams spec ~seed ~seconds =
  let per_conn = max 1 (spec.ops_per_second * seconds / connections) in
  Array.init connections (fun conn -> stream spec ~seed ~conn ~ops:per_conn)

(* The query shapes the correctness gate evaluates on the final state:
   point checks and listings on seeded keys (logged-in sids included),
   the whole table, and the GROUP BY when the mix has one. *)
let gate_queries spec ~seed =
  let st = rng ~seed ~stream:2 in
  let sid_space = spec.sessions + (spec.ops_per_second * 4) in
  let checks = List.init 64 (fun _ -> check_sql (Random.State.int st sid_space)) in
  let lists = List.init 16 (fun _ -> list_sql (Random.State.int st spec.users)) in
  let agg = if List.mem_assoc C_agg spec.mix then [ agg_sql ] else [] in
  (state_sql :: agg) @ checks @ lists
