(* Experiment exp-repl: the Section 1 traffic/consistency trade-off of
   exp_dist, replayed on real sockets.  A remote read cache can stay
   fresh by polling the primary (refetching the whole answer every k
   ticks, stale in between) or by being a WAL-shipped replica whose own
   clock expires tuples at their exact logical times.

   Expected shape: per-tick polling is exact but pays a full refetch
   per tick; slower polling trades exactness for traffic (it both
   serves tuples the primary already expired and misses nothing else —
   the workload here is insert-then-expire); the replica is exact at
   every tick for one shipped record per mutation. *)

open Expirel_core
open Expirel_server
open Expirel_repl

let ticks = 40
let tuples = 64

(* Expirations spread over twice the horizon: at any tick some tuples
   have expired, some are about to, some outlive the run. *)
let texp_of i = 2 + (i * 7 mod (2 * ticks))

(* The true answer at tick [t], known in closed form. *)
let truth t =
  List.filter (fun i -> texp_of i > t) (List.init tuples Fun.id)

let with_temp_dir f =
  let dir = Filename.temp_dir "expirel" "bench" in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun file -> Sys.remove (Filename.concat dir file))
        (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir)

let ok = function
  | Ok v -> v
  | Error e -> failwith e

let uids_of = function
  | Wire.Rows { rows; _ } ->
    List.sort compare
      (List.filter_map
         (fun (row, _) ->
           match row with
           | Value.Int uid :: _ -> Some uid
           | _ -> None)
         rows)
  | r -> failwith ("expected rows, got " ^ Wire.render_response r)

(* The primary's outbound payload bytes, read in process from its
   metrics registry. *)
let bytes_out server =
  List.fold_left ( +. ) 0.
    (Expirel_obs.Registry.values (Server.collect_metrics server)
       "expirel_bytes_out_total")
  |> int_of_float

(* Runs one strategy against a fresh primary; [serve] is called once
   per tick after the clock advanced and must return the uid set the
   cache would answer with.  Returns (messages, bytes, stale ticks,
   stale tuples) where bytes is the primary's outbound traffic for the
   strategy (the identical load + ADVANCE traffic is subtracted out via
   a baseline measured inside). *)
let run_phase ~strategy =
  with_temp_dir (fun dir ->
      let config =
        { Server.default_config with
          Server.port = 0;
          data_dir = Some dir
        }
      in
      let server = Server.create ~config () in
      Server.start server;
      Fun.protect
        ~finally:(fun () -> Server.stop server)
        (fun () ->
          let port = Server.port server in
          let admin = Client.connect ~host:"127.0.0.1" ~port () in
          Fun.protect
            ~finally:(fun () -> Client.close admin)
            (fun () ->
              ok (Client.exec_ok admin "CREATE TABLE pol (uid, deg)");
              for i = 0 to tuples - 1 do
                ok
                  (Client.exec_ok admin
                     (Printf.sprintf
                        "INSERT INTO pol VALUES (%d, %d) EXPIRES %d" i
                        (i mod 8) (texp_of i)))
              done;
              let base_bytes = bytes_out server in
              let messages, serve, finish = strategy ~server ~port in
              let stale_ticks = ref 0 in
              let stale_tuples = ref 0 in
              for tick = 1 to ticks do
                ok (Client.exec_ok admin
                      (Printf.sprintf "ADVANCE TO %d" tick));
                let served = serve tick in
                let exact = truth tick in
                if served <> exact then begin
                  incr stale_ticks;
                  let missing =
                    List.length (List.filter (fun u -> not (List.mem u served)) exact)
                  and excess =
                    List.length (List.filter (fun u -> not (List.mem u exact)) served)
                  in
                  stale_tuples := !stale_tuples + missing + excess
                end
              done;
              let bytes = bytes_out server - base_bytes in
              finish ();
              (messages (), bytes, !stale_ticks, !stale_tuples))))

(* Poll every k ticks: a cache client refetches the full answer, serves
   its (expiration-blind) copy in between.  It sends a bare [Exec], which
   holds nothing: [Client.exec] would name its copy and get a delta. *)
let poll every ~server:_ ~port =
  let client = Client.connect ~host:"127.0.0.1" ~port () in
  let refetches = ref 0 in
  let fetch () =
    incr refetches;
    uids_of (ok (Client.request client (Wire.Exec "SELECT uid, deg FROM pol")))
  in
  let cache = ref (fetch ()) in
  let serve tick =
    if tick mod every = 0 then cache := fetch ();
    !cache
  in
  (fun () -> !refetches), serve, fun () -> Client.close client

(* WAL shipping: a replica applies the primary's records — including
   clock advances, so its own storage expires tuples — and serves local
   reads. *)
let replicated rdir ~server ~port =
  let replica =
    Replica.create ~data_dir:rdir ~primary_host:"127.0.0.1" ~primary_port:port ()
  in
  Replica.start replica;
  let reader = ref None in
  let serve _tick =
    let position =
      match Server.store server with
      | Some store -> Expirel_storage.Durable.position store
      | None -> failwith "primary has no store"
    in
    if not (Replica.wait_for_position replica position) then
      failwith "replica fell behind";
    let client =
      match !reader with
      | Some c -> c
      | None ->
        let c = Client.connect ~host:"127.0.0.1" ~port:(Replica.port replica) () in
        reader := Some c;
        c
    in
    uids_of (ok (Client.exec client "SELECT uid, deg FROM pol"))
  in
  let finish () =
    Option.iter Client.close !reader;
    Replica.stop replica
  in
  (fun () -> Replica.records_applied replica), serve, finish

let run_all () =
  Bench_util.section "repl: WAL-shipped replica vs polling, on real sockets";
  Bench_util.param_int "ticks" ticks;
  Bench_util.param_int "tuples" tuples;
  let cases =
    [ "poll every 1", `Poll 1;
      "poll every 5", `Poll 5;
      "poll every 20", `Poll 20;
      "replica (WAL shipping)", `Replica ]
  in
  let rows =
    List.map
      (fun (label, case) ->
        let messages, bytes, stale_ticks, stale_tuples =
          match case with
          | `Poll every -> run_phase ~strategy:(poll every)
          | `Replica ->
            with_temp_dir (fun rdir -> run_phase ~strategy:(replicated rdir))
        in
        let slug =
          match case with
          | `Poll every -> Printf.sprintf "poll_%d" every
          | `Replica -> "replica"
        in
        Bench_util.metric_int (slug ^ "_messages") messages;
        Bench_util.metric_int (slug ^ "_primary_bytes_out") bytes;
        Bench_util.metric_int (slug ^ "_stale_ticks") stale_ticks;
        Bench_util.metric_int (slug ^ "_stale_tuples") stale_tuples;
        [ label;
          string_of_int messages;
          string_of_int bytes;
          Printf.sprintf "%d (%.1f%%)" stale_ticks
            (100. *. float_of_int stale_ticks /. float_of_int ticks);
          string_of_int stale_tuples ])
      cases
  in
  Bench_util.table
    ~headers:
      [ "strategy"; "messages"; "primary bytes out"; "stale ticks";
        "stale tuples" ]
    rows;
  print_newline ()
