#!/bin/sh
# The full CI gate: compile everything (libraries, CLI, examples and
# benches — so bench/ and examples/ cannot rot even though only test/
# runs) and then the whole test suite, which includes the live TCP
# server smoke/concurrency tests.
set -eux
cd "$(dirname "$0")/../.."
# One write path: every change to a node's data is a Wal.record written
# through Interp.write.  No lib/ or bin/ code outside lib/storage/ and
# the interpreter may call a Database, Table or Durable mutator.
if grep -rnE '\b(Database\.(insert|insert_values|insert_ttl|delete|advance_to|tick|create_table|drop_table)|Table\.(insert|delete)|Durable\.(write|reset_to))\b' \
    lib bin --include='*.ml' |
  grep -v -e '^lib/storage/' -e '^lib/sqlx/interp\.ml:'; then
  echo "ci: the calls above change state outside Interp.write" >&2
  exit 1
fi
# One standing-query engine: watches and MAINTAINED views are kept
# current by the executor's Subscription.  The naive oracle (paper/'s
# Maintained, Database.env/query) serves only lib/core/, paper/, tests
# and benches.
if grep -rnE '\bMaintained\.|\bDatabase\.(env|query)\b' lib bin --include='*.ml' |
  grep -v -e '^lib/core/'; then
  echo "ci: the naive oracle above is on the production path" >&2
  exit 1
fi
# One production tree: lib/ holds the engine and the oracle the tests
# compare against.  The paper's analyses (library expirel_paper, with
# the validity intervals they compute over), the loosely coupled
# simulations (expirel_dist) and the workload generators
# (expirel_workload) live in paper/, and no lib/ or bin/ file names
# them.
if grep -rnE '\b(Antijoin|Heap|Maintained|Patch|Qos|Rewrite|Schrodinger_view|Validity|View|Cost|Interval|Interval_set)\.|\b[Ee]xpirel_(paper|dist|workload)\b' \
    lib bin --include='*.ml' --include='*.mli' --include=dune; then
  echo "ci: the code above names a paper/ module; production links only lib/" >&2
  exit 1
fi
# One planner: the coordinator plans a read on the lowered algebra
# (Planner.distribute), never by matching query shapes on the AST.
if grep -nE '\bAst\.(Select|From_join|Star|Union|Except|Intersect)\b' \
    lib/cluster/coordinator.ml; then
  echo "ci: the coordinator classifies the AST above; plan with Planner.distribute" >&2
  exit 1
fi
# One executor: a coordinator's read is a plan of exchanges that
# Executor.run answers through the coordinator's fan-out.  No route
# type or gather session is left beside it, and the coordinator runs no
# local session of its own.
if grep -rnE '\b(gather_compute|gather_table_rows)\b|\bLower\.(route|Scatter|Gather)\b' \
    lib bin --include='*.ml' --include='*.mli'; then
  echo "ci: the names above belong to the removed read routes; plan with Planner.distribute" >&2
  exit 1
fi
if grep -nE '\bInterp\.(create|write)\b' lib/cluster/coordinator.ml; then
  echo "ci: the coordinator runs a local session above; its reads run through Executor.run" >&2
  exit 1
fi
# One texp-ordered structure: a table's rows and its secondary indexes
# are Texp_runs, and the expiration-index baselines of [24] live in
# bench/baselines.  No lib/ or bin/ file names the structures they
# replaced.
if grep -rnE 'Ordered_index|Expiration_index|Timer_wheel|Binary_heap|expirel_index' \
    lib bin; then
  echo "ci: the names above belong to removed structures or bench/baselines" >&2
  exit 1
fi
# One ring of finished traces: SLOW ranks the trace store
# (Trace_store.slowest); no code keeps a second copy of it.
if grep -rn 'Slow_log' lib bin test --include='*.ml' --include='*.mli' --include=dune; then
  echo "ci: Slow_log was folded into Trace_store; rank traces with Trace_store.slowest" >&2
  exit 1
fi
# One COUNT group form crosses the wire and is kept: a standing delta
# ships the shard's condensed groups, and the coordinator holds those,
# never a copy of the member multisets.
if grep -rnE 'standing_members|standing_all|standing_replace' lib bin test \
    --include='*.ml' --include='*.mli' --include=dune; then
  echo "ci: a kept GROUP BY holds the shards' condensed groups; no code copies member multisets" >&2
  exit 1
fi
# One way to ship what changed: a coordinator reads its shards' kept
# GROUP BY through held answers (a version per connection and text),
# as a client reads its rows.  No code names the standing cursor, the
# key log behind it or the entry ids it carried.
if grep -rnE 'no_cursor|Partial_agg\.cursor|Subscription\.(since|next_id)|log_write' lib bin test \
    --include='*.ml' --include='*.mli' --include=dune; then
  echo "ci: the names above belong to the removed standing cursor; kept reads name a held version" >&2
  exit 1
fi
# One record per observability answer: TRACE and SLOW ship the trace
# store's entries and HEALTH the evaluated report, as HORIZON ships the
# forecast, so no code names the wire's former copies of those records
# or the converters between them.
if grep -rnE 'Wire\.(span|slow_query|trace_entry|health_level|health_firing)\b|Slow_queries_reply|Wire\.Health_(ok|degraded|critical)|wire_(trace_entry|span|firing|health_level)' \
    lib bin bench test --include='*.ml' --include='*.mli'; then
  echo "ci: the names above belong to the wire's removed copies of Trace_store.entry and Health.report" >&2
  exit 1
fi
# One per-operator measurement: the executor records its op spans on
# the request's trace, and EXPLAIN ANALYZE renders its own run's spans.
# No lib/ or bin/ file names the profile sink or the probe hook those
# spans replaced.
if grep -rnE '\bProfile\.|\?profile\b|Executor\.probe\b|\bxprobe_of\b' lib bin; then
  echo "ci: the names above belong to the removed profile sink or probe hook" >&2
  exit 1
fi
# One statement path: statement errors become answers only in
# Interp.guard, whichever request carried the statement and whether a
# node or a coordinator answers it, so no server or cluster code
# catches them itself.  (Rebalance input validation's Invalid_argument
# is not a statement error.)
if grep -rnE 'exception (Errors\.|Lower\.Error|Failure)' lib/server lib/cluster; then
  echo "ci: the code above maps statement errors; answer through Interp.guard" >&2
  exit 1
fi
# One binary codec: the wire protocol and the sketch payloads encode
# every primitive through lib/core/codec.ml, so no other lib/ or bin/
# file defines its own.
if grep -rnE 'let (put|get)_(u8|bool|i64|u32|f64|str|time|value|list|option|vint|uvarint|vtime|vlist)\b' \
    lib bin --include='*.ml' | grep -v '^lib/core/codec\.ml:'; then
  echo "ci: the primitives above belong in lib/core/codec.ml" >&2
  exit 1
fi
# One frame and one record encoding: Frame (lib/storage/frame.ml) is the
# only code that reads or writes a 4-byte word, the wire's length prefix
# and the log's checksum alike, and the log's records are Codec bytes,
# so no lib/ or bin/ file percent-escapes one.
if grep -rnE 'add_int32_be|get_int32_be|%%%02X' lib bin --include='*.ml' |
  grep -v '^lib/storage/frame\.ml:'; then
  echo "ci: the code above frames or escapes bytes outside Frame and Codec" >&2
  exit 1
fi
# One fan-out: the coordinator posts to every contacted shard and
# gathers the replies on the caller's thread, so a request never spawns
# a thread; the heartbeat loop is lib/cluster's only thread.
if grep -rn 'Thread\.create' lib/cluster --include='*.ml' | grep -v 'heartbeat_loop t'; then
  echo "ci: the threads above serve a request; post and collect on the caller's thread" >&2
  exit 1
fi
# One statement cache: Interp keeps one shape-keyed LRU holding each
# statement shape's parse and plan.
if grep -rn 'parse_cache' lib bin; then
  echo "ci: the names above belong to the removed second LRU" >&2
  exit 1
fi
# Every statement a node or a coordinator reads goes through the
# statement cache (Statement_cache.prepare), which alone calls the
# parser on a statement text: a repeated shape is then parsed once.
if grep -rn 'Parser\.parse_statement' lib bin --include='*.ml' |
  grep -v '^lib/sqlx/statement_cache\.ml:'; then
  echo "ci: the code above parses a statement outside the statement cache; use Interp.prepare or Statement_cache.prepare" >&2
  exit 1
fi
# One client statement request: Client sends every statement as a
# Statement, which can name the answer it holds.  EXEC and EXEC_TRACED
# still decode (the server answers them holding nothing), but no lib/
# or bin/ file other than wire.ml builds one; matching one in a
# pattern (a line that opens with "| Wire.Exec") is fine.
if grep -rnE '\bWire\.Exec(_traced)?\b' lib bin --include='*.ml' |
  grep -v '^lib/server/wire\.ml:' |
  grep -vE '^[^:]+:[0-9]+:[[:space:]]*\| Wire\.Exec(_traced)? '; then
  echo "ci: the code above builds an Exec; send statements through Client.exec" >&2
  exit 1
fi
# One standing engine: a constraint is a Subscription entry that writes
# keep current and clock moves walk, so no lib/ or bin/ code reruns a
# constraint's plan through a forecast of its own, and the change-time
# walk stays inside subscription.ml (Subscription.forecast_events and
# deliver_until replay it).
if grep -rn 'Invariant\.forecast' lib bin; then
  echo "ci: the code above forecasts a constraint outside its Subscription entry" >&2
  exit 1
fi
if grep -rnE '\bSubscription\.walk\b' lib bin bench examples paper test \
    --include='*.ml' --include='*.mli' | grep -v '^lib/exec/subscription\.ml:'; then
  echo "ci: the code above walks an entry outside Subscription; use forecast_events or deliver_until" >&2
  exit 1
fi
# lib/ holds only what production runs: every lib/ module is named by
# some other lib/ or bin/ code (comments excluded).  One no production
# code names belongs beside its callers: test/, bench/ or paper/.
python3 - <<'PY'
import glob, os, re, sys

def strip(src):
    """The source without its comments (nested), strings kept."""
    out = []
    i, depth, n = 0, 0, len(src)
    while i < n:
        c = src[i]
        if src.startswith('(*', i) and not src.startswith('(*)', i):
            depth += 1
            i += 2
        elif depth and src.startswith('*)', i):
            depth -= 1
            i += 2
        elif c == '"':
            j = i + 1
            while j < n and src[j] != '"':
                j += 2 if src[j] == '\\' else 1
            if not depth:
                out.append(src[i:j + 1])
            i = j + 1
        elif c == "'" and (src[i + 2:i + 3] == "'" or src[i + 1:i + 2] == '\\'):
            j = src.find("'", i + 2) + 1
            if not depth:
                out.append(src[i:j])
            i = j
        else:
            if not depth:
                out.append(c)
            i += 1
    return ''.join(out)

sources = {}
for pattern in ('lib/**/*.ml', 'lib/**/*.mli', 'bin/**/*.ml', 'bin/**/*.mli'):
    for f in glob.glob(pattern, recursive=True):
        sources[f] = strip(open(f).read())
unnamed = []
for f in sorted(glob.glob('lib/**/*.ml', recursive=True)):
    stem = os.path.splitext(f)[0]
    word = re.compile(r'\b' + os.path.basename(stem).capitalize() + r'\b')
    if not any(word.search(text) for g, text in sources.items()
               if os.path.splitext(g)[0] != stem):
        unnamed.append(f)
for f in unnamed:
    print(f)
if unnamed:
    sys.exit("ci: no other lib/ or bin/ code names the modules above; move them beside their callers")
# One physical executor: the naive kernels (Ops) serve lib/core's
# oracle alone, so no other lib/ or bin/ code calls them; and no code
# names the unfused aggregate node those calls ran, or the trigger log
# that kept every expiration.
oracle = [f for f, text in sorted(sources.items())
          if not f.startswith('lib/core/') and re.search(r'\bOps\.', text)]
for f in oracle:
    print(f)
if oracle:
    sys.exit("ci: the files above call the naive Ops kernels outside lib/core")
removed = re.compile(r'\bHash_aggregate\b|\bTrigger\.(fired_log|clear_log)\b')
named = []
for top in ('lib', 'bin', 'bench', 'test'):
    for pattern in ('/**/*.ml', '/**/*.mli'):
        for f in glob.glob(top + pattern, recursive=True):
            if removed.search(strip(open(f).read())):
                named.append(f)
for f in sorted(set(named)):
    print(f)
if named:
    sys.exit("ci: the files above name the removed unfused aggregate or trigger log")
# A rebalance runs alone: statements through a coordinator wait out a
# move, so no code keeps the second routing path (a move's target map,
# its move counter, the reads that reran across a move step).
moving = re.compile(r'\brouted_read\b|\bt\.(moving|moves)\b')
rerouted = sorted(f for top in ('lib', 'test') for pattern in ('/**/*.ml', '/**/*.mli')
                  for f in glob.glob(top + pattern, recursive=True)
                  if moving.search(strip(open(f).read())))
for f in rerouted:
    print(f)
if rerouted:
    sys.exit("ci: the files above route statements around a move in flight; a move runs alone")
# One run rule and one scan path: a table's own run is a run keyed on a
# constant, read through Texp_run.scan_range like an index, so no code
# keeps a second family of chunk readers or a second scan leaf.
cut = re.compile(r'\b(buffer_chunk|cut_chunk|iter_chunks|cut_scan)\b')
second_scan = sorted(f for top in ('lib', 'bin', 'test')
                     for pattern in ('/**/*.ml', '/**/*.mli', '/**/dune')
                     for f in glob.glob(top + pattern, recursive=True)
                     if cut.search(strip(open(f).read())))
for f in second_scan:
    print(f)
if second_scan:
    sys.exit("ci: the files above read a run's chunks beside Texp_run.scan_range")
# A fold writes each merged chunk straight into arrays sized from its
# share of the changes, so no lib/ code cuts a merged array into chunks
# a second time.
resplit = sorted(f for pattern in ('lib/**/*.ml', 'lib/**/*.mli')
                 for f in glob.glob(pattern, recursive=True)
                 if re.search(r'\bsub_chunk\b', strip(open(f).read())))
for f in resplit:
    print(f)
if resplit:
    sys.exit("ci: the files above re-split a merged chunk; a fold writes its chunks directly")
# A run's pending changes are sorted arrays in levels plus a write
# buffer, and no reader stores into the run: no lib/ or bin/ code names
# the pending tree, the reader-sorted batch or the cached layout of the
# pending adds, and texp_run.ml has no settle step.
trees = re.compile(r'\b(Key_set|sorted_adds|adds_chunks|fold_between)\b')
treed = sorted(f for top in ('lib', 'bin') for pattern in ('/**/*.ml', '/**/*.mli')
               for f in glob.glob(top + pattern, recursive=True)
               if trees.search(strip(open(f).read())))
if (re.search(r'\bsettle\b', strip(open('lib/storage/texp_run.ml').read()))
        and 'lib/storage/texp_run.ml' not in treed):
    treed.append('lib/storage/texp_run.ml')
for f in treed:
    print(f)
if treed:
    sys.exit("ci: the files above keep a pending tree or a reader that settles; pending changes are sorted levels")
# A table's row map is one open-addressing table (Row_map) that a write
# probes once; table.ml builds no functorial hash table beside it.
if re.search(r'\bHashtbl\.Make\b', strip(open('lib/storage/table.ml').read())):
    print('lib/storage/table.ml')
    sys.exit("ci: the file above keeps its rows in a Hashtbl.Make table; they live in a Row_map")
# A node holds no shard map: the coordinator decides where every row
# moves (Wire.shard_owner is named only by it and by wire.ml), and a
# move reaches the shards as statements plus Move_rows, every request
# through the coordinator's exchange, so no code names the retired
# rebalance requests or the node's installed map, and lib/ keeps no
# second request path (on_slot, Member.on).
retired = re.compile(r'\b(Extract_moving|Ingest_rows|Purge_moved|Moved_rows|installed_map)\b')
second_path = re.compile(r'\bon_slot\b|\bMember\.on\b')
owner = re.compile(r'\bshard_owner\b')
mapped = []
for top in ('lib', 'bin', 'test'):
    for pattern in ('/**/*.ml', '/**/*.mli'):
        for f in glob.glob(top + pattern, recursive=True):
            text = strip(open(f).read())
            if (retired.search(text)
                    or (top == 'lib' and second_path.search(text))
                    or (top != 'test' and owner.search(text)
                        and not f.startswith(('lib/cluster/', 'lib/server/wire.')))):
                mapped.append(f)
for f in sorted(set(mapped)):
    print(f)
if mapped:
    sys.exit("ci: the files above let a node decide a row's owner or reach a shard outside exchange")
# A node holds no cluster identity: a coordinator claims no node and
# tells a restart by the boot id a heartbeat brings, so no code names
# the retired shard-map handshake or a slot's map version.
handshake = re.compile(
    r'\b(Shard_map_req|Shard_install|Shard_map_reply|shard_identity|map_version_seen)\b')
claimed = sorted(f for top in ('lib', 'bin', 'test') for pattern in ('/**/*.ml', '/**/*.mli')
                 for f in glob.glob(top + pattern, recursive=True)
                 if handshake.search(strip(open(f).read())))
for f in claimed:
    print(f)
if claimed:
    sys.exit("ci: the files above name the retired shard-map handshake; a boot id tells a restart")
PY
# One request loop: a coordinator answers the wire through the loop a
# node serves through, and `connect` is the only REPL, so bin/ keeps no
# second dispatcher and reads no coordinator observability in process.
if grep -rnE '\b(cluster_statement|print_shard_summaries)\b|\bCoordinator\.(metrics|health|horizon|recent_traces|trace_store)\b' \
    bin; then
  echo "ci: the code above drives a coordinator in process; connect to it over the wire" >&2
  exit 1
fi
# lib/obs, lib/exec and lib/sketch compile with -warn-error +a (their
# dunes say so); build them alone first so a warning fails fast with a
# small log.
dune build lib/obs
dune build lib/exec
dune build lib/sketch
dune build @all
dune runtest
# The standing-query example runs, not just compiles: a constraint
# predicts a coverage gap and a watch fires at a row's expiration time.
OPS_OUT=$(_build/default/examples/ops_center.exe)
echo "$OPS_OUT" | grep -F "senior coverage now breaks at 60"
echo "$OPS_OUT" | grep -F "t=60  off-shift: <1, 1>"
# The wire example runs too: its closing line reads the server's
# counters in process from the METRICS registry.
NET_OUT=$(_build/default/examples/net_demo.exe)
echo "$NET_OUT" | grep -F "server metrics: 8 request(s), 2 event(s) pushed, 2 tuple(s) expired"
# The sessions ledger, 3 s traced per gated workload: it exits 1 when
# its correctness gate fails or the per-layer breakdown stops
# reconciling with client latency — e.g. when a shard path stops
# recording its trace entry.
# Each smoke's last stdout line is its JSON result: both workloads
# repeat a handful of statement shapes, so the statement cache must
# answer at least 9 in 10 planning requests.
for WORKLOAD in cluster-fanout session-churn; do
  LEDGER_OUT=$(python3 perfbench/run.py --workload "$WORKLOAD" --seed 1 --seconds 3 --trace 1)
  echo "$LEDGER_OUT"
  echo "$LEDGER_OUT" | tail -n 1 | python3 -c '
import json, sys
ratio = json.loads(sys.stdin.read())["metrics"]["exec.plan_cache_hit_ratio"]["value"]
if ratio < 0.9:
    sys.exit("ci: %s: exec.plan_cache_hit_ratio %.3f is below 0.9" % (sys.argv[1], ratio))
' "$WORKLOAD"
done
# The bench smokes below run at CI size.  Every experiment writes
# BENCH_<id>.json into its working directory, so run them from a
# scratch directory: the committed BENCH_*.json at the root hold the
# full-size runs and must come out of CI byte-identical.
BENCH_SUMS_BEFORE=$(cksum BENCH_*.json)
BENCH=$(pwd)/_build/default/bench/main.exe
SMOKE_DIR=$(mktemp -d)
# Smoke the observability experiment: a live server, a METRICS scrape
# validated line by line, and SLOW's ranking of the trace store — end
# to end.
(cd "$SMOKE_DIR" && "$BENCH" obs)
# One point request's trace (create, record, observe, store) must have
# been priced, and allocate at most 150 minor words: the recorder's flat
# log, the histograms indexed by span name and the ring's reused slots
# keep it there, and allocation counts repeat exactly from run to run.
grep -F '"trace_point_ns"' "$SMOKE_DIR/BENCH_obs.json"
TRACE_WORDS=$(sed -n 's/.*"trace_point_words": *\([0-9.eE+-]*\).*/\1/p' "$SMOKE_DIR/BENCH_obs.json")
test -n "$TRACE_WORDS"
if ! awk -v w="$TRACE_WORDS" 'BEGIN { exit !(w <= 150) }'; then
  echo "ci: a point-request trace allocates $TRACE_WORDS words, over 150" >&2
  exit 1
fi
# Smoke the physical execution experiment: hash vs nested-loop joins,
# the O(1) live-scan fast path, the plan cache, the relation tree's
# diff and exp at 10^3 and 10^5 rows, and a watch's and a constraint's
# TICK at three sizes, and one INSERT under each.  Each of those rows
# must have been recorded.
(cd "$SMOKE_DIR" && "$BENCH" exec)
for row in relation_diff_n1000_us relation_diff_n100000_us \
    relation_exp_n1000_us relation_exp_n100000_us \
    standing_advance_watch_us_w100 standing_advance_watch_us_w10000 \
    standing_advance_watch_us_w100000 \
    standing_advance_constraint_us_w100 standing_advance_constraint_us_w10000 \
    standing_advance_constraint_us_w100000 \
    standing_insert_watch_us_w100000 standing_insert_constraint_us_w100000; do
  grep -F "\"$row\"" "$SMOKE_DIR/BENCH_exec.json"
done
# Smoke the access experiment: index probes against scans, table
# writes, and loads into two indexes with and without the first point
# read through each (the second figure adds the first reads of a
# burst's pending adds), and the minor words a load allocates
# per row.  Each load and write row must have been recorded, and the
# 10^5 / 10^4 ratios of the overwrite, delete and load medians.
(cd "$SMOKE_DIR" && "$BENCH" access)
for rows in 10000 100000; do
  for row in load_ms load_read_ms load_words_per_row insert_us overwrite_us delete_us; do
    grep -F "\"access_${row}_n${rows}\"" "$SMOKE_DIR/BENCH_access.json"
  done
done
for row in overwrite delete load; do
  grep -F "\"access_${row}_ratio\"" "$SMOKE_DIR/BENCH_access.json"
done
# Smoke the sketch experiment end to end (single-pass folds, memory
# vs a materialized relation, 3-way merge, a live 3-shard cluster) at
# a CI-sized event count; the full 10^7 run is for BENCH_sketch.json.
(cd "$SMOKE_DIR" && EXPIREL_SKETCH_EVENTS=200000 "$BENCH" sketch)
# Smoke the vectorized-executor experiment (live cut, filter kernel,
# batched hash-join probe, grouped aggregate, grouped COUNT, a promoted
# GROUP BY COUNT read, a COUNT an index range could serve, chunk-cut
# accounting)
# at a CI-sized row count; it fails hard if any row's two answers differ
# or the cut skips fewer rows than the expired half.  The grouped COUNT
# row must have recorded its per-row cost: a row skipped silently fails
# here.
# The full 10^5/10^6 sweep is for BENCH_vexec.json.
(cd "$SMOKE_DIR" && EXPIREL_VEXEC_ROWS=20000 "$BENCH" vexec)
grep -F '"grouped_count_n20000_f0_ns_per_row"' "$SMOKE_DIR/BENCH_vexec.json"
# The promoted GROUP BY COUNT row must have recorded its read cost too.
grep -F '"standing_count_n10000_standing_us"' "$SMOKE_DIR/BENCH_vexec.json"
# So must the COUNT an index range could serve, on scrambled ids.
grep -F '"unordered_n20000_f99_speedup"' "$SMOKE_DIR/BENCH_vexec.json"
# Smoke the cluster experiment (3 in-process shards: scatter-gather,
# pruning, slice-partial GROUP BY, gathered joins); it fails hard if a
# GROUP BY combined from slice partials answers differently from the
# gather-then-compute path.
(cd "$SMOKE_DIR" && "$BENCH" cluster)
# The repeated GROUP BY COUNT row (kept groups, shard deltas) must have
# recorded its per-read cost; it fails hard if the kept answer differs
# from the stateless one.
grep -F '"standing_groupby_n10000_g1000_us_per_read"' "$SMOKE_DIR/BENCH_cluster.json"
# So must the rows where keeping gains nothing: texts in rotation past
# the caches, and writes touching most groups between reads.
grep -F '"standing_groupby_t80_us_per_read"' "$SMOKE_DIR/BENCH_cluster.json"
grep -F '"standing_groupby_w1800_us_per_read"' "$SMOKE_DIR/BENCH_cluster.json"
# Bytes are a gate only if they reproduce: a second run of the cluster
# experiment must ship exactly as many bytes per read on every row.
SMOKE_DIR2=$(mktemp -d)
(cd "$SMOKE_DIR2" && "$BENCH" cluster)
grep -F '_bytes_per_read"' "$SMOKE_DIR/BENCH_cluster.json" > "$SMOKE_DIR/bytes_rows"
grep -F '_bytes_per_read"' "$SMOKE_DIR2/BENCH_cluster.json" > "$SMOKE_DIR2/bytes_rows"
test -s "$SMOKE_DIR/bytes_rows"
if ! cmp "$SMOKE_DIR/bytes_rows" "$SMOKE_DIR2/bytes_rows"; then
  diff "$SMOKE_DIR/bytes_rows" "$SMOKE_DIR2/bytes_rows" >&2 || true
  echo "ci: two runs of bench cluster shipped different bytes per read" >&2
  exit 1
fi
rm -rf "$SMOKE_DIR2"
# Smoke the server experiment (its full size: ~2 s): 32 wire clients,
# then one GROUP BY text re-read with 0, 1 and 16 writes between reads,
# held (a delta against the client's copy) and whole; it fails hard if
# the held re-read differs from the whole answer.
(cd "$SMOKE_DIR" && "$BENCH" server)
grep -F '"held_groupby_n10000_g1000_w1_us_per_read"' "$SMOKE_DIR/BENCH_server.json"
# Smoke the durability experiment (its full size: ~0.6 s): per workload
# the log and the snapshot are written, then replayed by reopening.
(cd "$SMOKE_DIR" && "$BENCH" durable)
grep -F '"ttl20_wal_bytes_per_record"' "$SMOKE_DIR/BENCH_durable.json"
rm -rf "$SMOKE_DIR"
test "$(cksum BENCH_*.json)" = "$BENCH_SUMS_BEFORE"

# Observability end to end through the CLI: a live server, EXPLAIN
# ANALYZE and HEALTH driven over the wire, and the Prometheus page
# scraped and parse-validated sample by sample.
CLI=_build/default/bin/expirel_cli.exe
SERVE_LOG=$(mktemp)
"$CLI" serve --port 0 --node-name ci-primary >"$SERVE_LOG" 2>&1 &
SERVER_PID=$!
trap 'kill "$SERVER_PID" 2>/dev/null || true' EXIT
PORT=""
for _ in $(seq 1 100); do
  PORT=$(sed -n 's/.*listening on [^:]*:\([0-9][0-9]*\).*/\1/p' "$SERVE_LOG")
  [ -n "$PORT" ] && break
  sleep 0.1
done
test -n "$PORT"
"$CLI" connect --port "$PORT" -e "
  CREATE TABLE pol (uid, deg);
  INSERT INTO pol VALUES (1, 25) EXPIRES 10;
  INSERT INTO pol VALUES (2, 25) EXPIRES 15;
  INSERT INTO pol VALUES (3, 35) EXPIRES 20;
  ADVANCE TO 12"
# EXPLAIN ANALYZE: per-operator actuals and the statement footer.
EXPLAIN_OUT=$("$CLI" connect --port "$PORT" -e "EXPLAIN ANALYZE SELECT uid FROM pol WHERE deg = 25")
echo "$EXPLAIN_OUT" | grep -F "seq-scan pol"
echo "$EXPLAIN_OUT" | grep -F "(est="
echo "$EXPLAIN_OUT" | grep -F "rows=1"
echo "$EXPLAIN_OUT" | grep -F "total:"
# One executor: no EXPLAIN line carries an execution-mode tag.
PLAN_OUT=$("$CLI" connect --port "$PORT" -e "EXPLAIN SELECT deg, COUNT(*) FROM pol GROUP BY deg")
echo "$PLAN_OUT" | grep -F "physical plan:"
test -z "$(printf '%s\n%s\n' "$PLAN_OUT" "$EXPLAIN_OUT" | grep -F -e '[tuple]' -e '[batch]')"
# AT runs on the executor too: at 16 only the row expiring at 20 is
# left of the current state.
"$CLI" connect --port "$PORT" -e "SELECT uid FROM pol AT 16" | grep -F "1 row(s)"
# A ; inside a string literal does not split the statement.
"$CLI" connect --port "$PORT" -e "CREATE TABLE semi (a, b); INSERT INTO semi VALUES (1, 'x;y') TTL 5; SELECT a, b FROM semi" \
  | grep -F "1, 'x;y'"
# Approximate aggregates over the wire: APPROX_COUNT answers with an
# error bound column, SAMPLE returns at most k live rows, and EXPLAIN
# shows the sketch-backed physical operator.
APPROX_OUT=$("$CLI" connect --port "$PORT" -e "SELECT APPROX_COUNT(0.1) FROM pol")
echo "$APPROX_OUT" | grep -F "approx_count, within"
echo "$APPROX_OUT" | grep -F "2, 0"
"$CLI" connect --port "$PORT" -e "SELECT SAMPLE(2) FROM pol" | grep -F "2 row(s)"
"$CLI" connect --port "$PORT" -e "EXPLAIN SELECT APPROX_COUNT(0.1) FROM pol" \
  | grep -F "sketch-count"
# HEALTH: a fresh server must answer ok (exit code 0).
"$CLI" health --port "$PORT"
"$CLI" connect --port "$PORT" -e "HEALTH" | grep -F "health: ok"
# HORIZON: the forward-looking forecast, over the wire keyword, as
# SQL, and through the one-shot subcommand.  After ADVANCE TO 12 two
# rows are live (texp 15 and 20), both inside the 16-tick window.
"$CLI" connect --port "$PORT" -e "HORIZON" | grep -F "horizon now=12"
"$CLI" connect --port "$PORT" -e "SHOW HORIZON" | grep -F "table pol: live=2 soon=2"
"$CLI" horizon --port "$PORT" | grep -F "horizon now=12"
"$CLI" horizon --port "$PORT" --table pol | grep -F "table pol: live=2"
"$CLI" horizon --port "$PORT" --prom | grep -F "# TYPE expirel_horizon_rows histogram"
# TRACE: the statements above left request traces behind, and they
# export as Chrome trace-event JSON.
"$CLI" connect --port "$PORT" -e "TRACE 5" | grep -F "ci-primary"
"$CLI" trace --port "$PORT" --json | grep -F '"traceEvents":['
# Prometheus: scrape the exposition and validate every sample line
# parses (floats or +/-Inf), and the new families are present.
PROM=$(mktemp)
"$CLI" stats --port "$PORT" >"$PROM"
grep -F "# TYPE expirel_plan_cache_hits_total counter" "$PROM"
grep -F "expirel_plan_cache_requests_total" "$PROM"
grep -F "expirel_health_status" "$PROM"
# The forward-looking horizon families and the build identity.
grep -F "# TYPE expirel_horizon_rows histogram" "$PROM"
grep -F 'expirel_horizon_rows_bucket{table="pol"' "$PROM"
grep -F "expirel_horizon_fanout_events" "$PROM"
grep -F 'expirel_churn_rate{kind="arrival"}' "$PROM"
grep -F 'expirel_build_info{version=' "$PROM"
grep -F "expirel_uptime_seconds" "$PROM"
# Held answers: the gauge of answers held for re-reads, and the reply
# forms counted (the CLI's statements above went out as Statement).
grep -F "# TYPE expirel_held_answers gauge" "$PROM"
grep -F "# TYPE expirel_held_replies_total counter" "$PROM"
# The sketch queries above left per-sketch memory and live-estimate
# gauges behind.
grep -F 'expirel_sketch_memory_bytes{sketch="approx_count(0.1)"}' "$PROM"
grep -F 'expirel_sketch_live_estimate{sketch="sample(2)"}' "$PROM"
awk '
  /^$/ || /^#/ { next }
  {
    v = $NF
    if (v !~ /^[+-]?([0-9]*\.?[0-9]+([eE][+-]?[0-9]+)?|Inf|NaN)$/) {
      print "unparsable sample: " $0; exit 1
    }
    samples++
  }
  END { if (samples == 0) { print "empty exposition"; exit 1 } }
' "$PROM"
kill "$SERVER_PID" 2>/dev/null || true
rm -f "$SERVE_LOG" "$PROM"

# The sharded cluster end to end through the CLI: boot 3 shards on
# ephemeral ports, route writes, scatter-gather a read, EXPLAIN
# ANALYZE across every shard, check one trace id spans coordinator
# and shards, and scrape the cluster's Prometheus counters.
CLUSTER_LOG=$(mktemp)
"$CLI" cluster serve --shards 3 --base-port 0 >"$CLUSTER_LOG" 2>&1 &
CLUSTER_PID=$!
trap 'kill "$SERVER_PID" "$CLUSTER_PID" 2>/dev/null || true' EXIT
SHARD_ARGS=""
for _ in $(seq 1 100); do
  SHARD_ARGS=$(sed -n 's/^shard [0-9] listening on \([^:]*:[0-9][0-9]*\)$/--shard \1/p' "$CLUSTER_LOG" | tr '\n' ' ')
  [ "$(echo "$SHARD_ARGS" | wc -w)" = 6 ] && break
  sleep 0.1
done
test "$(echo "$SHARD_ARGS" | wc -w)" = 6
# shellcheck disable=SC2086
CLUSTER_OUT=$("$CLI" cluster connect $SHARD_ARGS -e "
  CREATE TABLE pol (uid, deg);
  INSERT INTO pol VALUES (1, 25) EXPIRES 10;
  INSERT INTO pol VALUES (2, 25) EXPIRES 15;
  INSERT INTO pol VALUES (3, 35) EXPIRES 20;
  SELECT uid, deg FROM pol;
  SELECT COUNT(*) FROM pol;
  SELECT deg, COUNT(*) FROM pol GROUP BY deg ORDER BY deg;
  SELECT deg, COUNT(*) FROM pol GROUP BY deg ORDER BY deg;
  SELECT deg, COUNT(*) FROM pol GROUP BY deg ORDER BY deg;
  SELECT AVG(deg) FROM pol;
  CREATE TABLE tags (uid, tag);
  INSERT INTO tags VALUES (9, 25) EXPIRES 30;
  SELECT * FROM pol JOIN tags ON pol.deg = tags.tag;
  SELECT APPROX_COUNT(0.1) FROM pol;
  SELECT SAMPLE(2) FROM pol;
  EXPLAIN ANALYZE SELECT uid FROM pol WHERE deg = 25;
  TRACE 30;
  SHARDS;
  HORIZON;
  SHOW HORIZON;
  METRICS")
# DDL broadcast to all three shards, rows scatter-gathered back.
echo "$CLUSTER_OUT" | grep -F "table pol created (on 3 shard(s))"
echo "$CLUSTER_OUT" | grep -F "3 row(s)"
# Global COUNT combines per-shard partials instead of refusing; the
# sketch keywords answer from merged per-shard partial sketches.
echo "$CLUSTER_OUT" | grep -F "texp | count"
echo "$CLUSTER_OUT" | grep -E '10 \| 3$'
# Distributed GROUP BY: per-shard expiration-slice partials combine at
# the coordinator — groups straddling shards unify, per-row texps are
# the groups' change points.
echo "$CLUSTER_OUT" | grep -F "texp | deg, count"
echo "$CLUSTER_OUT" | grep -E '10 \| 25, 2$'
echo "$CLUSTER_OUT" | grep -E '20 \| 35, 1$'
# Read again, the same GROUP BY COUNT is kept at the coordinator: its
# first read is stateless, on its second the shards promote it and ship
# every group, and on the third each ships only the groups written
# since (none).
echo "$CLUSTER_OUT" | grep -E '^expirel_cluster_agg_full_reads_total 1$'
echo "$CLUSTER_OUT" | grep -E '^expirel_cluster_agg_delta_reads_total [1-9]'
# AVG travels as SUM + COUNT and is divided once, at the coordinator.
echo "$CLUSTER_OUT" | grep -F "texp | avg(deg)"
echo "$CLUSTER_OUT" | grep -E '10 \| 28\.3333$'
# A join on a column other than the partitioning key gathers both
# tables to the coordinator (one contact per shard per table) and
# joins them there.
echo "$CLUSTER_OUT" | grep -F "texp | pol.uid, deg, tags.uid, tag"
echo "$CLUSTER_OUT" | grep -E '10 \| 1, 25, 9, 25$'
echo "$CLUSTER_OUT" | grep -E '15 \| 2, 25, 9, 25$'
echo "$CLUSTER_OUT" | grep -F "approx_count, within"
echo "$CLUSTER_OUT" | grep -F "2 row(s)"
# EXPLAIN ANALYZE fans out: one annotated plan per shard.
test "$(echo "$CLUSTER_OUT" | grep -cF -- '--- shard ')" = 3
echo "$CLUSTER_OUT" | grep -F "total:"
# One trace id spans the coordinator and at least one shard.
TID=$(echo "$CLUSTER_OUT" | awk '$2 == "coordinator" && /SELECT uid, deg/ { print $1; exit }')
test -n "$TID"
echo "$CLUSTER_OUT" | awk -v tid="$TID" '$1 == tid && $2 ~ /^shard-/ { found = 1 } END { exit !found }'
echo "$CLUSTER_OUT" | grep -F "rpc:shard-"
# Every shard reported a reachable partition summary.
test "$(echo "$CLUSTER_OUT" | grep -c "^shard [0-9]: reachable")" = 3
# The merged horizon names every table with its per-shard breakdown
# (HORIZON keyword and SHOW HORIZON statement agree), and the
# cluster-wide forecast gauges ride the coordinator's METRICS page.
echo "$CLUSTER_OUT" | grep -F "shard 0: live="
echo "$CLUSTER_OUT" | grep -F "table pol: live=3 soon=2"
echo "$CLUSTER_OUT" | grep -F "table tags: live=1 soon=0"
test "$(echo "$CLUSTER_OUT" | grep -cF "horizon now=0")" = 2
echo "$CLUSTER_OUT" | grep -E 'expirel_cluster_live_rows 4'
echo "$CLUSTER_OUT" | grep -E 'expirel_cluster_horizon_expiring_soon 2'
echo "$CLUSTER_OUT" | grep -F 'expirel_build_info{version='
# The cluster metric families are present, with per-shard routing
# counters, and every sample line parses like the server's page does.
CLUSTER_PROM=$(mktemp)
echo "$CLUSTER_OUT" | sed -n '/^# HELP expirel_cluster/,$p' >"$CLUSTER_PROM"
echo "$CLUSTER_OUT" | grep -F "# TYPE expirel_cluster_shard_requests_total counter"
echo "$CLUSTER_OUT" | grep -E 'expirel_cluster_shard_requests_total\{shard="0"\} [1-9]'
echo "$CLUSTER_OUT" | grep -F "expirel_cluster_pruned_shards_total"
echo "$CLUSTER_OUT" | grep -E 'expirel_cluster_shard_map_version [1-9]'
echo "$CLUSTER_OUT" | grep -E 'expirel_cluster_shards 3'
awk '
  /^$/ || /^#/ { next }
  !/^expirel_/ { next }
  {
    v = $NF
    if (v !~ /^[+-]?([0-9]*\.?[0-9]+([eE][+-]?[0-9]+)?|Inf|NaN)$/) {
      print "unparsable sample: " $0; exit 1
    }
    samples++
  }
  END { if (samples == 0) { print "empty exposition"; exit 1 } }
' "$CLUSTER_PROM"
# Key routing: a second coordinator on the same shards, on a table of
# its own.  A point SELECT and a point DELETE each reach only the key's
# owner, and the coordinator's METRICS page counts the shard contacts
# routing skipped.
# shellcheck disable=SC2086
ROUTED_OUT=$("$CLI" cluster connect $SHARD_ARGS -e "
  CREATE TABLE routed (k, v);
  INSERT INTO routed VALUES (1, 10) EXPIRES 50;
  INSERT INTO routed VALUES (2, 20) EXPIRES 50;
  INSERT INTO routed VALUES (3, 30) EXPIRES 50;
  SELECT k, v FROM routed WHERE k = 2;
  DELETE FROM routed WHERE k = 3;
  SELECT k, v FROM routed;
  METRICS")
echo "$ROUTED_OUT" | grep -E '50 \| 2, 20$'
echo "$ROUTED_OUT" | grep -F "1 tuple(s) deleted (on 1 shard(s))"
echo "$ROUTED_OUT" | grep -F "2 row(s)"
echo "$ROUTED_OUT" | grep -E 'expirel_cluster_routed_total [1-9]'
kill "$CLUSTER_PID" 2>/dev/null || true
rm -f "$CLUSTER_LOG" "$CLUSTER_PROM"

# A client reaches a cluster as it reaches a node: `cluster serve` also
# starts a listening coordinator, and plain `connect` drives it with
# the first block's statements on a fresh cluster, so the same lines
# read the same.  A SUBSCRIBE is answered with an error line, and the
# session goes on answering.
COORD_LOG=$(mktemp)
"$CLI" cluster serve --shards 3 --base-port 0 >"$COORD_LOG" 2>&1 &
COORD_PID=$!
trap 'kill "$SERVER_PID" "$CLUSTER_PID" "$COORD_PID" 2>/dev/null || true' EXIT
COORD_PORT=""
for _ in $(seq 1 100); do
  COORD_PORT=$(sed -n 's/^coordinator listening on [^:]*:\([0-9][0-9]*\)$/\1/p' "$COORD_LOG")
  [ -n "$COORD_PORT" ] && break
  sleep 0.1
done
test -n "$COORD_PORT"
COORD_OUT=$("$CLI" connect --port "$COORD_PORT" -e "
  CREATE TABLE pol (uid, deg);
  INSERT INTO pol VALUES (1, 25) EXPIRES 10;
  INSERT INTO pol VALUES (2, 25) EXPIRES 15;
  INSERT INTO pol VALUES (3, 35) EXPIRES 20;
  SELECT uid, deg FROM pol;
  SUBSCRIBE w AS SELECT uid FROM pol;
  SELECT COUNT(*) FROM pol;
  SELECT deg, COUNT(*) FROM pol GROUP BY deg ORDER BY deg;
  SELECT deg, COUNT(*) FROM pol GROUP BY deg ORDER BY deg;
  SELECT deg, COUNT(*) FROM pol GROUP BY deg ORDER BY deg;
  SELECT AVG(deg) FROM pol;
  CREATE TABLE tags (uid, tag);
  INSERT INTO tags VALUES (9, 25) EXPIRES 30;
  SELECT * FROM pol JOIN tags ON pol.deg = tags.tag;
  SELECT APPROX_COUNT(0.1) FROM pol;
  SELECT SAMPLE(2) FROM pol;
  EXPLAIN ANALYZE SELECT uid FROM pol WHERE deg = 25;
  TRACE 30;
  SHARDS;
  HORIZON;
  SHOW HORIZON;
  METRICS")
echo "$COORD_OUT" | grep -F "table pol created (on 3 shard(s))"
echo "$COORD_OUT" | grep -F "3 row(s)"
# The refused SUBSCRIBE, then the next statement's answer.
echo "$COORD_OUT" | grep -A1 '^error: ' | grep -F "texp | count"
echo "$COORD_OUT" | grep -E '10 \| 3$'
echo "$COORD_OUT" | grep -E '10 \| 25, 2$'
echo "$COORD_OUT" | grep -E '20 \| 35, 1$'
echo "$COORD_OUT" | grep -E '^expirel_cluster_agg_full_reads_total 1$'
echo "$COORD_OUT" | grep -E '^expirel_cluster_agg_delta_reads_total [1-9]'
echo "$COORD_OUT" | grep -E '10 \| 28\.3333$'
echo "$COORD_OUT" | grep -E '10 \| 1, 25, 9, 25$'
echo "$COORD_OUT" | grep -F "approx_count, within"
test "$(echo "$COORD_OUT" | grep -cF -- '--- shard ')" = 3
TID=$(echo "$COORD_OUT" | awk '$2 == "coordinator" && /SELECT uid, deg/ { print $1; exit }')
test -n "$TID"
echo "$COORD_OUT" | awk -v tid="$TID" '$1 == tid && $2 ~ /^shard-/ { found = 1 } END { exit !found }'
test "$(echo "$COORD_OUT" | grep -c "^shard [0-9]: reachable")" = 3
echo "$COORD_OUT" | grep -F "shard 0: live="
echo "$COORD_OUT" | grep -F "table pol: live=3 soon=2"
test "$(echo "$COORD_OUT" | grep -cF "horizon now=0")" = 2
echo "$COORD_OUT" | grep -E 'expirel_cluster_live_rows 4'
echo "$COORD_OUT" | grep -E 'expirel_cluster_shard_requests_total\{shard="0"\} [1-9]'
echo "$COORD_OUT" | grep -F 'expirel_build_info{version='
kill "$COORD_PID" 2>/dev/null || true
rm -f "$COORD_LOG"

# A watch through the real server, driven the way a user would: the
# statements are piped into an interactive `connect`, on a table of
# their own.  The ADVANCE past the row's expiration pushes its event
# before the acknowledgement, and DROP TABLE under the watch is refused
# with a message naming it.  Until here only in-process code exercised
# watches.
WATCH_LOG=$(mktemp)
"$CLI" serve --port 0 --node-name ci-watch >"$WATCH_LOG" 2>&1 &
WATCH_PID=$!
trap 'kill "$SERVER_PID" "$CLUSTER_PID" "$COORD_PID" "$WATCH_PID" 2>/dev/null || true' EXIT
PORT=""
for _ in $(seq 1 100); do
  PORT=$(sed -n 's/.*listening on [^:]*:\([0-9][0-9]*\).*/\1/p' "$WATCH_LOG")
  [ -n "$PORT" ] && break
  sleep 0.1
done
test -n "$PORT"
WATCH_OUT=$(printf '%s\n' \
  "CREATE TABLE watched (id);" \
  "INSERT INTO watched VALUES (1) EXPIRES 10;" \
  "INSERT INTO watched VALUES (2) EXPIRES 30;" \
  "SUBSCRIBE w AS SELECT id FROM watched;" \
  "ADVANCE TO 12;" \
  "DROP TABLE watched;" | "$CLI" connect --port "$PORT")
echo "$WATCH_OUT" | grep -F "[w] row expired at 10: <1>"
echo "$WATCH_OUT" | grep -F "table watched is read by subscription w"
kill "$WATCH_PID" 2>/dev/null || true
rm -f "$WATCH_LOG"
