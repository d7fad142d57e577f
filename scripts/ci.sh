#!/usr/bin/env bash
# The tier-1 gate: build, test, lint. Run before every push.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo build --release"
cargo build --release

echo "== cargo test -q"
cargo test -q

echo "== cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo fmt --all -- --check"
cargo fmt --all -- --check

echo "== cargo doc --workspace --no-deps (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "== benchmark build + tests (perfbench/, against this tree's crates)"
# perfbench is its own package with path dependencies on crates/*, so a
# harness change that breaks an import it relies on fails here, not in the
# benchmark run.
CARGO_TARGET_DIR=.bench_build cargo test --release --offline --locked \
  --manifest-path perfbench/Cargo.toml

echo "== bench_history smoke (tiny record + self-compare must be clean)"
# The smokes below keep their files under target/experiments, which no
# earlier stage needs to create.
mkdir -p target/experiments
HISTORY_SMOKE="target/experiments/ci_bench_history_smoke.jsonl"
rm -f "$HISTORY_SMOKE"
cargo run --release -q -p ant-bench --bin bench_history -- \
  record --label tiny --repeats 2 --file "$HISTORY_SMOKE"
cargo run --release -q -p ant-bench --bin bench_history -- \
  compare --self --file "$HISTORY_SMOKE" \
  --report target/experiments/ci_bench_history_smoke.md

echo "== microbench smoke (tiny kernel grid record + clean self-compare --json)"
MICRO_SMOKE="target/experiments/ci_microbench_smoke.jsonl"
MICRO_JSON="target/experiments/ci_microbench_compare.json"
rm -f "$MICRO_SMOKE" "$MICRO_JSON"
cargo run --release -q -p ant-bench --bin microbench -- \
  --grid tiny --repeats 2 --file "$MICRO_SMOKE"
cargo run --release -q -p ant-bench --bin bench_history -- \
  compare --self --file "$MICRO_SMOKE" --json "$MICRO_JSON" \
  --report target/experiments/ci_microbench_compare.md
python3 - "$MICRO_JSON" <<'PY'
import json, sys

report = json.load(open(sys.argv[1]))
assert report["schema"] == "ant-bench-compare/1", report["schema"]
assert report["regressed"] is False, "self-compare must be clean"
kernel = [m for m in report["metrics"] if m["class"] == "kernel"]
assert kernel, "no kernel-class metrics in the microbench compare"
for m in kernel:
    assert m["name"].startswith("kernel/") and m["name"].endswith("/ns_per_op"), m
    assert m["gate"] >= 0.25, f"kernel gate below the static floor: {m}"
print(f"microbench smoke: {len(kernel)} kernel metrics gated ok")
PY

echo "== bench_history gate (HEAD tiny vs rolling median of the committed ledger)"
# Record a fresh tiny entry on top of a copy of the committed ledger and
# gate it against the rolling median of the previous same-label entries
# (deterministic cycle metrics at the fixed threshold; host wall time and
# allocations widened by each run's recorded noise floor). Working on a
# copy keeps CI from dirtying the committed BENCH_history.jsonl.
HISTORY_GATE="target/experiments/ci_bench_history_gate.jsonl"
cp BENCH_history.jsonl "$HISTORY_GATE"
cargo run --release -q -p ant-bench --bin bench_history -- \
  record --label tiny --repeats 3 --file "$HISTORY_GATE"
cargo run --release -q -p ant-bench --bin bench_history -- \
  compare --file "$HISTORY_GATE" \
  --report target/experiments/ci_bench_history_gate.md

echo "== metrics exporter smoke (fig09 under ANT_METRICS_ADDR: /metrics grammar, /status schema)"
# Bind port 0, discover the resolved address through ANT_METRICS_ADDR_FILE,
# and scrape the endpoints while the process lingers for final scrapes.
# The same run records the trace JSONL the obsctl smoke below analyzes.
METRICS_ADDR_FILE="target/experiments/ci_metrics.addr"
OBSCTL_TRACE="target/experiments/ci_obsctl_trace.jsonl"
FIG09_MANIFEST="target/experiments/fig09_speedup_energy.manifest.json"
FIG09_REDUNDANCY="target/experiments/fig09_speedup_energy.redundancy.jsonl"
rm -f "$METRICS_ADDR_FILE" "$OBSCTL_TRACE" "$FIG09_MANIFEST" "$FIG09_REDUNDANCY"
ANT_METRICS_ADDR=127.0.0.1:0 ANT_METRICS_ADDR_FILE="$METRICS_ADDR_FILE" \
ANT_METRICS_LINGER_MS=30000 ANT_TRACE=1 ANT_TRACE_FILE="$OBSCTL_TRACE" \
  ./target/release/fig09_speedup_energy >/dev/null 2>&1 &
EXPORTER_PID=$!
for _ in $(seq 1 100); do
  [[ -s "$METRICS_ADDR_FILE" ]] && break
  sleep 0.1
done
[[ -s "$METRICS_ADDR_FILE" ]] || { echo "exporter never wrote $METRICS_ADDR_FILE" >&2; exit 1; }
python3 - "$(cat "$METRICS_ADDR_FILE")" <<'PY'
import json, re, sys, time, urllib.request

addr = sys.argv[1].strip()
def fetch(path):
    with urllib.request.urlopen(f"http://{addr}{path}", timeout=5) as r:
        return r.status, r.read().decode()

# Wait for the run to finish so every runner.* family is present.
body = "{}"
for _ in range(200):
    code, body = fetch("/status")
    if code == 200 and json.loads(body).get("state") == "done":
        break
    time.sleep(0.1)
status = json.loads(body)
assert status["schema"] == "ant-status/1", status
assert status["state"] == "done", status
assert "git_revision" in status, "live /status must carry git_revision"

# A network publishes "done" per sweep; the manifest is only written at
# experiment finish, after the redundancy gauges are recorded. Wait for
# it so the /metrics scrape below sees the complete run.
import os
for _ in range(600):
    if os.path.exists("target/experiments/fig09_speedup_energy.manifest.json"):
        break
    time.sleep(0.1)
else:
    raise AssertionError("fig09 manifest never appeared")

code, body = fetch("/healthz")
assert code == 200 and body == "ok\n", (code, body)

# Line-by-line Prometheus text-exposition (0.0.4) grammar check: every
# sample after its family's single TYPE line, names legal, optional
# label sets well-formed, values floats.
code, text = fetch("/metrics")
assert code == 200, code
sample_re = re.compile(
    r"([a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?:[a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\\n]|\\.)*\",?)*\})? (.+)")
declared, seen, labeled = {}, set(), {}
for line in text.splitlines():
    assert line and not line[0].isspace(), f"blank/indented line {line!r}"
    if line.startswith("#"):
        m = re.fullmatch(r"# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge)", line)
        assert m, f"bad comment line {line!r}"
        assert m.group(1) not in declared, f"duplicate TYPE for {m.group(1)}"
        declared[m.group(1)] = m.group(2)
        continue
    m = sample_re.fullmatch(line)
    assert m, f"bad sample line {line!r}"
    name, value = m.group(1), m.group(2)
    assert name in declared, f"sample {name!r} before its TYPE line"
    assert name not in seen, f"duplicate sample for {name!r}"
    seen.add(name)
    if "{" in line:
        labeled[name] = line
    if value not in ("NaN", "+Inf", "-Inf"):
        float(value)
assert seen == set(declared), f"TYPEd families without samples: {sorted(set(declared) - seen)}"
counters = [n for n in seen if declared[n] == "counter" and n.startswith("ant_runner_")]
assert counters, f"no runner.* counters exposed in {sorted(seen)[:10]}"
# The constant build-info gauge carries the same git revision the run
# manifest records in its host section.
assert "ant_build_info" in labeled, "no ant_build_info sample"
manifest = json.load(open("target/experiments/fig09_speedup_energy.manifest.json"))
revision = manifest["host"].get("git_revision") or ""
expected = f'ant_build_info{{git_revision="{revision}"}} 1'
assert labeled["ant_build_info"] == expected, (labeled["ant_build_info"], expected)
# The run's redundancy gauges are live on the same scrape.
assert "ant_redundancy_rcps_total" in seen, "no redundancy gauges exposed"
print(f"metrics exporter: {len(seen)} samples grammar-ok "
      f"({len(counters)} runner.* counters, build info @ {revision[:12] or 'no-git'})")
PY
kill "$EXPORTER_PID" 2>/dev/null || true
wait "$EXPORTER_PID" 2>/dev/null || true

echo "== obsctl smoke (trace stats, flame diff fixtures, ledger listing)"
OBSCTL=./target/release/obsctl
"$OBSCTL" trace "$OBSCTL_TRACE" --json > target/experiments/ci_obsctl_trace.json
FLAME_A="target/experiments/ci_flame_a.folded"
FLAME_B="target/experiments/ci_flame_b.folded"
printf 'exp;net;layer 100\nexp;net;layer;phase 40\nexp;gone 10\n' > "$FLAME_A"
printf 'exp;net;layer 150\nexp;net;layer;phase 40\nexp;new 5\n' > "$FLAME_B"
"$OBSCTL" flame diff "$FLAME_A" "$FLAME_B" --json > target/experiments/ci_obsctl_flame.json
cargo run --release -q -p ant-bench --bin bench_history -- \
  list --file "$HISTORY_GATE" --json > target/experiments/ci_obsctl_list.json
python3 - <<'PY'
import json

trace = json.load(open("target/experiments/ci_obsctl_trace.json"))
assert trace["schema"] == "ant-trace-stats/1", trace["schema"]
assert trace["records_matched"] > 0 and trace["spans"], "empty trace analysis"
assert trace["lines_skipped"] == 0, trace["lines_skipped"]

flame = json.load(open("target/experiments/ci_obsctl_flame.json"))
assert flame["schema"] == "ant-flame-diff/1", flame["schema"]
deltas = {p["path"]: p for p in flame["paths"]}
assert deltas["exp;net;layer"]["self_delta_us"] == 50, deltas
assert deltas["exp"]["total_delta_us"] == 45, deltas
assert deltas["exp;gone"]["self_delta_us"] == -10, deltas

listing = json.load(open("target/experiments/ci_obsctl_list.json"))
assert listing["schema"] == "ant-bench-list/1", listing["schema"]
assert listing["entries"] == len(listing["runs"]) > 0, listing["entries"]
print(f"obsctl: {len(trace['spans'])} trace paths, "
      f"{listing['entries']} ledger entries listed")
PY

echo "== redundancy observatory smoke (sidecar schema + obsctl totals == manifest counters)"
# The exporter-smoke fig09 run above wrote the ant-redundancy/1 sidecar
# and mirrored its aggregate RCP counters into the manifest. Validate the
# sidecar line by line, then assert `obsctl redundancy --json` totals
# reproduce the manifest's counters exactly. A tab05 run then checks the
# per-network ANT avoided fractions against its headline average.
[[ -s "$FIG09_REDUNDANCY" ]] || { echo "fig09 wrote no redundancy sidecar" >&2; exit 1; }
"$OBSCTL" redundancy "$FIG09_REDUNDANCY" --json \
  > target/experiments/ci_obsctl_redundancy.json
cargo run --release -q -p ant-bench --bin tab05_rcps_avoided >/dev/null
"$OBSCTL" redundancy target/experiments/tab05_rcps_avoided.redundancy.jsonl \
  --machine ANT --json > target/experiments/ci_obsctl_redundancy_tab05.json
python3 - "$FIG09_REDUNDANCY" "$FIG09_MANIFEST" <<'PY'
import json, sys

rows = []
for line in open(sys.argv[1]):
    row = json.loads(line)
    assert row["schema"] == "ant-redundancy/1", row["schema"]
    keys = [k for k in row]
    assert keys == sorted(keys), f"row keys must be sorted: {keys}"
    assert row["rcps_executed"] + row["rcps_skipped"] == row["rcps_total"], row
    assert row["phase"] in ("W*A", "W*G_A", "G_A*A"), row["phase"]
    assert row["machine"] in ("ANT", "SCNN+"), row["machine"]
    assert isinstance(row["partial"], bool) and not row["partial"], row
    for key in ("pairs_total", "mults", "effectual_macs", "sram_reads", "sram_writes"):
        assert isinstance(row[key], int) and row[key] >= 0, (key, row)
    rows.append(row)
assert rows, "empty redundancy sidecar"

report = json.load(open("target/experiments/ci_obsctl_redundancy.json"))
assert report["schema"] == "ant-redundancy-stats/1", report["schema"]
assert report["lines_skipped"] == 0 and report["rows_matched"] == len(rows), report
totals = report["totals"]
for key in ("rcps_total", "rcps_executed", "rcps_skipped"):
    summed = sum(r[key] for r in rows)
    assert totals[key] == summed, (key, totals[key], summed)

# The obsctl totals equal the aggregate counters the manifest mirrored.
manifest = json.load(open(sys.argv[2]))
stats = manifest["stats"]
for key in ("rcps_total", "rcps_executed", "rcps_skipped"):
    assert totals[key] == stats[key], (key, totals[key], stats[key])
assert stats["redundancy_rows"] == len(rows), (stats["redundancy_rows"], len(rows))
adv = report["advantage"]
assert adv and all(a["machine"] == "ANT" and a["baseline"] == "SCNN+" for a in adv), \
    "fig09 sidecar must attribute ANT advantage over SCNN+"

# tab05: per-network ANT avoided fractions must average to the table's
# headline stat (float sum order differs, hence the tolerance).
tab = json.load(open("target/experiments/ci_obsctl_redundancy_tab05.json"))
tab_manifest = json.load(open("target/experiments/tab05_rcps_avoided.manifest.json"))
nets = tab["networks"]
assert len(nets) == tab_manifest["stats"]["networks"], nets
mean = sum(n["rcps_avoided_fraction"] for n in nets) / len(nets)
expected = tab_manifest["stats"]["average_rcps_avoided"]
assert abs(mean - expected) < 1e-9, (mean, expected)
print(f"redundancy observatory: {len(rows)} fig09 rows schema-ok, "
      f"obsctl totals == manifest counters, "
      f"tab05 avoided mean {mean:.4f} == {expected:.4f}")
PY

echo "== simulation-cache invariants (bit-identity and steady-state allocation under ANT_CACHE=1)"
# The cold -> warm fig09 smoke (byte-identical CSV/JSONL, zero warm misses,
# equal manifest stats/config, obsctl cache == registry) is the tier-1 test
# tests/simcache.rs::fig09_warm_process_replays_the_cold_one_from_the_store.
# The hot-path invariants hold with the cache active: the serial/parallel
# bit-identity test and the steady-state allocation gate rerun under
# ANT_CACHE=1 (cache hits may only change speed, never results or the
# warm worker's allocation profile).
ANT_CACHE=1 cargo test --release -q -p ant-bench --lib \
  runner::tests::parallel_runner_is_bit_identical_to_serial
ANT_CACHE=1 cargo test --release -q -p ant-bench --test steady_state_alloc

echo "== warm-ledger smoke (tiny-warm record must self-compare clean)"
# The warm label pre-populates an in-memory cache and times cache-served
# repeats; its entry must still round-trip the ledger and gate cleanly.
cargo run --release -q -p ant-bench --bin bench_history -- \
  record --label tiny-warm --repeats 2 --file "$HISTORY_SMOKE"
cargo run --release -q -p ant-bench --bin bench_history -- \
  compare --self --file "$HISTORY_SMOKE" \
  --report target/experiments/ci_bench_history_warm.md

echo "== steady-state allocation gate (warm worker must not touch the heap)"
cargo test --release -q -p ant-bench --test steady_state_alloc

echo "== chaos smoke (seeded fault injection: sweep must complete and quarantine)"
# The deterministic harness first (exact expected quarantine set), then the
# env-gated path end to end: a full fig09 sweep under ANT_CHAOS must exit 0
# with every injected failure isolated, never abort.
cargo test --release -q -p ant-bench --test chaos
CHAOS_ERR="target/experiments/ci_chaos_smoke.err"
ANT_CHAOS="seed=7,panic=0.02,truncate=0.01,shape=0.01" \
  ./target/release/fig09_speedup_energy >/dev/null 2>"$CHAOS_ERR"
echo "chaos smoke: fig09 sweep survived injection" \
  "($(grep -c 'quarantined' "$CHAOS_ERR" || true) partial-run warning(s))"

echo "== sweepd smoke (kill -9 mid-job, restart: recovery + byte-identical results, typed shedding)"
# Three daemon phases over the same two-tenant job mix:
#   1. reference: a clean run; both jobs complete, results copied aside.
#   2. interrupted: stall chaos holds job 1 in its first attempt for 1 s;
#      the smoke polls /jobs until job 1 reads running and job 2 queued,
#      then kill -9 lands mid-job, leaving running/queued spool records.
#   3. restart on the same spool: both jobs recover; seeded job-death chaos
#      (seed=4, job=0.05 strikes exactly job 1 attempt 1) exercises the
#      supervised retry, and a deadline_ms=0 submission the typed 503 shed.
#      Recovered results must be byte-identical to the reference run.
SWEEPD=./target/release/sweepd
SWEEPD_DIR=target/experiments/ci_sweepd
rm -rf "$SWEEPD_DIR"
mkdir -p "$SWEEPD_DIR"
SPEC_ALICE='{"tenant":"alice","model":"tiny","machines":["ant","scnn+"],"sparsities":[0.5,0.9]}'
SPEC_BOB='{"tenant":"bob","model":"tiny","machines":["ant"],"sparsities":[0.7],"weight":2}'

sweepd_start() { # spool addr_file [EXTRA_ENV=...]
  local spool=$1 addr_file=$2
  shift 2
  rm -f "$addr_file"
  env ANT_SWEEPD_ADDR=127.0.0.1:0 ANT_SWEEPD_SPOOL="$spool" \
    ANT_SWEEPD_ADDR_FILE="$addr_file" "$@" \
    "$SWEEPD" >>"$SWEEPD_DIR/daemon.log" 2>&1 &
  SWEEPD_PID=$!
  for _ in $(seq 1 100); do
    [[ -s "$addr_file" ]] && break
    sleep 0.05
  done
  [[ -s "$addr_file" ]] || { echo "sweepd never wrote $addr_file" >&2; exit 1; }
  SWEEPD_BASE="http://$(cat "$addr_file")"
}

sweepd_post() { # base spec -> prints the HTTP status code
  python3 - "$1" "$2" <<'PY'
import sys, urllib.error, urllib.request
req = urllib.request.Request(sys.argv[1] + "/jobs", data=sys.argv[2].encode(),
                             headers={"Content-Type": "application/json"})
try:
    with urllib.request.urlopen(req, timeout=10) as r:
        print(r.status)
except urllib.error.HTTPError as e:
    print(e.code)
PY
}

sweepd_wait() { # base: poll /jobs until every job is terminal and done
  python3 - "$1" <<'PY'
import json, sys, time, urllib.request
base = sys.argv[1]
for _ in range(1200):
    with urllib.request.urlopen(base + "/jobs", timeout=10) as r:
        board = json.load(r)
    states = [j["state"] for j in board["jobs"]]
    if states and all(s in ("done", "quarantined", "expired") for s in states):
        assert all(s == "done" for s in states), f"jobs ended badly: {states}"
        sys.exit(0)
    time.sleep(0.1)
raise AssertionError("sweepd jobs never finished")
PY
}

# Phase 1: the uninterrupted reference run.
sweepd_start "$SWEEPD_DIR/ref-spool" "$SWEEPD_DIR/ref.addr"
[[ $(sweepd_post "$SWEEPD_BASE" "$SPEC_ALICE") == 202 ]] \
  || { echo "reference alice submit refused" >&2; exit 1; }
[[ $(sweepd_post "$SWEEPD_BASE" "$SPEC_BOB") == 202 ]] \
  || { echo "reference bob submit refused" >&2; exit 1; }
sweepd_wait "$SWEEPD_BASE"
kill "$SWEEPD_PID" 2>/dev/null || true
wait "$SWEEPD_PID" 2>/dev/null || true

# Phase 2: same jobs, kill -9 inside job 1's chaos stall, once the board
# shows job 1 running and job 2 queued behind it.
sweepd_start "$SWEEPD_DIR/spool" "$SWEEPD_DIR/kill.addr" ANT_CHAOS=stall=1.0
[[ $(sweepd_post "$SWEEPD_BASE" "$SPEC_ALICE") == 202 ]] \
  || { echo "interrupted alice submit refused" >&2; exit 1; }
[[ $(sweepd_post "$SWEEPD_BASE" "$SPEC_BOB") == 202 ]] \
  || { echo "interrupted bob submit refused" >&2; exit 1; }
python3 - "$SWEEPD_BASE" <<'PY'
import json, sys, time, urllib.request
base = sys.argv[1]
for _ in range(1000):
    with urllib.request.urlopen(base + "/jobs", timeout=10) as r:
        states = {j["seq"]: j["state"] for j in json.load(r)["jobs"]}
    if states.get(1) == "running" and states.get(2) == "queued":
        sys.exit(0)
    assert states.get(1) in ("queued", "running"), f"job 1 ended before the kill: {states}"
    time.sleep(0.005)
raise AssertionError(f"jobs never read running/queued: {states}")
PY
kill -9 "$SWEEPD_PID"
wait "$SWEEPD_PID" 2>/dev/null || true

# Phase 3: restart on the killed spool; recover, retry once, shed once.
sweepd_start "$SWEEPD_DIR/spool" "$SWEEPD_DIR/restart.addr" \
  ANT_CHAOS=seed=4,job=0.05
[[ $(sweepd_post "$SWEEPD_BASE" \
    '{"tenant":"carol","model":"tiny","machines":["ant"],"sparsities":[0.5],"deadline_ms":0}') == 503 ]] \
  || { echo "past-deadline submit was not shed with 503" >&2; exit 1; }
sweepd_wait "$SWEEPD_BASE"
for f in job-1.result.csv job-1.result.jsonl job-2.result.csv job-2.result.jsonl; do
  cmp -s "$SWEEPD_DIR/ref-spool/$f" "$SWEEPD_DIR/spool/$f" \
    || { echo "recovered $f diverged from the uninterrupted reference" >&2; exit 1; }
done
python3 - "$SWEEPD_BASE" "$SWEEPD_DIR" <<'PY'
import json, sys, urllib.request
base, outdir = sys.argv[1], sys.argv[2]
def fetch(path):
    with urllib.request.urlopen(base + path, timeout=10) as r:
        return r.read().decode()
metrics = {}
for line in fetch("/metrics").splitlines():
    if line.startswith("#"):
        continue
    name, _, value = line.partition(" ")
    metrics[name.split("{")[0]] = float(value)
# Both jobs were non-terminal at the kill, job 1 died once under the
# seeded chaos, and only the past-deadline submission was shed.
assert metrics.get("ant_sweepd_job_recovered") == 2, metrics
assert metrics.get("ant_sweepd_job_retries") == 1, metrics
assert metrics.get("ant_sweepd_job_shed") == 1, metrics
assert metrics.get("ant_sweepd_job_quarantined", 0) == 0, metrics
assert metrics.get("ant_sweepd_job_completed") == 2, metrics
board = fetch("/jobs")
open(f"{outdir}/jobs.json", "w").write(board)
doc = json.loads(board)
assert doc["schema"] == "ant-sweepd-jobs/1", doc["schema"]
assert sum(j["recovered"] for j in doc["jobs"]) == 2, doc
job1 = next(j for j in doc["jobs"] if j["seq"] == 1)
assert job1["attempt_count"] == 1, job1
assert "job-worker death" in job1["attempts"][0]["error"], job1
assert job1["attempts"][0]["backoff_ms"] is not None, job1
print(f"sweepd smoke: {len(doc['jobs'])} jobs recovered to byte-identical "
      f"results, retry/shed counters ok")
PY
"$OBSCTL" jobs "$SWEEPD_DIR/jobs.json" | grep -q 'recovered from spool' \
  || { echo "obsctl jobs lost the recovery marker" >&2; exit 1; }
kill "$SWEEPD_PID" 2>/dev/null || true
wait "$SWEEPD_PID" 2>/dev/null || true

echo "== panic-site budget (non-test src/ lines with unwrap()/expect(/panic!)"
# Robustness ratchet: the typed-error refactor drove non-test panic sites
# down to this count; new code must not grow it. Lower the pin when you
# remove sites; raising it needs a reviewed justification.
# The count includes the single intentional `panic!` in serve/daemon.rs that
# injects a supervised job-worker death under seeded ANT_CHAOS — it is the
# fault the catch_unwind supervision exists to absorb, not an error path.
# 103: ANT's conv pair unwraps its two anticipator paths in one place.
# 99: the process-wide flame table and its four lock unwraps are gone.
# 85: trace pairs are borrowed from planes validated once per trace, so the
# binaries' per-phase `expect`s on pair construction are gone.
MAX_PANIC_SITES=85
PANIC_SITES=0
for f in $(find crates -path '*/src/*.rs' | sort); do
  n=$(awk '/#\[cfg\(test\)\]/{exit} /unwrap\(\)|expect\(|panic!/{n++} END{print n+0}' "$f")
  PANIC_SITES=$((PANIC_SITES + n))
done
echo "panic sites: $PANIC_SITES (budget $MAX_PANIC_SITES)"
if [ "$PANIC_SITES" -gt "$MAX_PANIC_SITES" ]; then
  echo "panic-site budget exceeded: prefer typed AntError returns over unwrap()/expect()/panic!" >&2
  exit 1
fi

echo "ci: all green"
