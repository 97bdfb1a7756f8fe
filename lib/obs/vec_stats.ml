(* Process-global counters for the executor's batches, mirroring the
   sketch Observatory's shape: the executor records once per query
   (coarse — never per row or per batch), and the server's Prometheus
   registry polls the totals through gauge callbacks. *)

type snapshot = {
  s_batches : int;
  s_rows : int;
  s_cut_skipped : int;
  s_rebatches : int;
}

let zero = { s_batches = 0; s_rows = 0; s_cut_skipped = 0; s_rebatches = 0 }
let lock = Mutex.create ()
let totals = ref zero

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let record d =
  locked (fun () ->
      let t = !totals in
      totals :=
        { s_batches = t.s_batches + d.s_batches;
          s_rows = t.s_rows + d.s_rows;
          s_cut_skipped = t.s_cut_skipped + d.s_cut_skipped;
          s_rebatches = t.s_rebatches + d.s_rebatches
        })

let snapshot () = locked (fun () -> !totals)
