type node = {
  op : string;
  est_rows : int;
  mutable rows : int;
  mutable expired_dropped : int;
  mutable index_visited : int;
  mutable build_rows : int;
  mutable sketch_bytes : int;
  mutable batches : int;
  mutable cut_skipped : int;
  mutable time_us : int;
  children : node list;
}

let rec of_plan ~db plan =
  { op = Plan.operator_name plan;
    est_rows = Planner.estimate_rows db plan;
    rows = 0; expired_dropped = 0; index_visited = 0; build_rows = 0;
    sketch_bytes = 0;
    batches = 0; cut_skipped = 0;
    time_us = 0;
    children = List.map (of_plan ~db) (Plan.children plan) }

let rec total_expired_dropped n =
  List.fold_left
    (fun acc c -> acc + total_expired_dropped c)
    n.expired_dropped n.children

(* The annotation appended to each plan line.  Scan-only counters print
   only where they mean something: dropped on scans (the expiration
   churn), visited on index scans, build on hash joins, batch counts on
   operators that yield batches and chunk-pruning savings on scans. *)
let annotate n =
  let buf = Buffer.create 64 in
  Buffer.add_string buf
    (Printf.sprintf "(est=%d rows=%d" n.est_rows n.rows);
  if n.op = "seq-scan" || n.op = "index-scan" then
    Buffer.add_string buf (Printf.sprintf " dropped=%d" n.expired_dropped);
  if n.op = "index-scan" then
    Buffer.add_string buf (Printf.sprintf " visited=%d" n.index_visited);
  if n.op = "hash-join" then
    Buffer.add_string buf (Printf.sprintf " build=%d" n.build_rows);
  if n.op = "sketch-count" || n.op = "sketch-sample" then
    Buffer.add_string buf (Printf.sprintf " sketch=%dB" n.sketch_bytes);
  if n.batches > 0 then
    Buffer.add_string buf (Printf.sprintf " batches=%d" n.batches);
  if (n.op = "seq-scan" || n.op = "index-scan") && n.batches > 0 then
    Buffer.add_string buf (Printf.sprintf " cut_skipped=%d" n.cut_skipped);
  Buffer.add_string buf
    (Printf.sprintf " time=%.3fms)" (float_of_int n.time_us /. 1e3));
  Buffer.contents buf

let render plan node =
  let buf = Buffer.create 256 in
  let rec go depth p n =
    Buffer.add_string buf (String.make (2 * depth) ' ');
    Buffer.add_string buf (Plan.describe p);
    Buffer.add_string buf "  ";
    Buffer.add_string buf (annotate n);
    Buffer.add_char buf '\n';
    List.iter2 (go (depth + 1)) (Plan.children p) n.children
  in
  go 0 plan node;
  Buffer.contents buf
