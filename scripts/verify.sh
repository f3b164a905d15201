#!/usr/bin/env sh
# Full verification gate: build, tests, lints, formatting.
# Run from the repository root: ./scripts/verify.sh
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test -q"
cargo test -q --workspace

echo "==> chaos smoke (2 seeded fault schedules per app/protocol)"
CHAOS_SCHEDULES=2 cargo test -q --test chaos

echo "==> checkpoint-cadence smoke (bounded logs, torn-crash restart, device-full resume)"
cargo test -q --test checkpoint_cadence

echo "==> determinism gate (every app x protocol twice same-seed, byte-compared)"
# Runs every app x {None, ML, CCL} twice with identical specs and
# requires byte-identical phases_json plus equal full trace
# fingerprints (MsgSend/MsgRecv included), then replays the chaos
# matrix once (two fixed schedules, with crashes for ML/CCL) under the
# same comparison. No tolerances anywhere.
./target/release/detcheck --chaos 2

echo "==> scale tests, release, timed (64- and 128-node liveness under a wall ceiling)"
# A generous ceiling: post-sharding the whole file runs in a few
# seconds in release, so 180 s only trips on a gross scheduler perf
# regression (the pre-shard fabric needed ~7.6 s per 128-node run) or
# an outright deadlock the 60 s watchdog somehow missed.
scale_t0=$(date +%s)
timeout 180 cargo test -q --release --test scale
echo "scale tests: OK ($(( $(date +%s) - scale_t0 )) s, ceiling 180 s)"

echo "==> benchmark build (perfbench, against its committed lockfile)"
# perfbench is a package of its own, outside the workspace, so the
# workspace build above does not compile it. --locked fails if a crate
# change would make cargo rewrite perfbench/Cargo.lock.
cargo build --release --locked --manifest-path perfbench/Cargo.toml

echo "==> benchmark self-test (perfbench, smoke scale)"
cargo test -q --release --locked --manifest-path perfbench/Cargo.toml

echo "==> report smoke (obsv pipeline: tiny matrix, schema check, drift gate)"
./target/release/report --smoke --out "$PWD/target/report_smoke.json" >/dev/null
python3 - "$PWD/target/report_smoke.json" <<'PYEOF'
import json, sys
d = json.load(open(sys.argv[1]))
assert d["schema"] == "ccl-report/v1" and d["scale"] == "smoke", "bad header"
apps = d["apps"]
assert set(apps) == {"3D-FFT", "MG", "Shallow", "Water"}, sorted(apps)
for name, a in apps.items():
    runs = a["runs"]
    assert set(runs) == {"none", "ml", "ccl"}, (name, sorted(runs))
    assert len({r["digest"] for r in runs.values()}) == 1, f"{name}: protocols disagree"
    assert runs["none"]["log_bytes"] == 0, name
    assert 0 < runs["ccl"]["log_bytes"] < runs["ml"]["log_bytes"], f"{name}: CCL log not smaller"
    for proto, r in runs.items():
        assert r["trace_dropped"] == 0, (name, proto)
        h = r["hist"]["fetch_latency_ns"]
        assert h["min"] <= h["p50"] <= h["p99"] <= h["max"], (name, proto, h)
    assert a["recovery"]["ml_ns"] > 0 and a["recovery"]["ccl_ns"] > 0, name
print("report smoke: OK (schema valid, CCL < ML log everywhere, drift gate passed)")
PYEOF

echo "==> blame smoke (causal blame engine: tiny matrix + crash runs, baseline byte-compare)"
# The binary itself hard-checks the exactness invariants per run
# (blame path sums to exec_ns, log attribution sums to log_bytes, no
# dropped trace events) and byte-compares the full document against
# the committed crates/obsv/blame_baseline.json — any drift is a
# non-zero exit. The python pass re-checks the written document from
# the outside so a silent writer bug can't pass the gate.
./target/release/blame --smoke --out "$PWD/target/blame_smoke.json" >/dev/null
python3 - "$PWD/target/blame_smoke.json" <<'PYEOF'
import json, sys
d = json.load(open(sys.argv[1]))
assert d["schema"] == "ccl-blame/v1" and d["scale"] == "smoke", "bad header"
runs = d["runs"]
apps = ("3D-FFT", "MG", "Shallow", "Water")
want = {f"{a}/{p}" for a in apps for p in ("none", "ml", "ccl")}
want |= {f"{a}/{p}/crash" for a in apps for p in ("ml", "ccl")}
assert set(runs) == want, sorted(set(runs) ^ want)
for label, r in runs.items():
    cp = r["critical_path"]
    assert cp["sum_ns"] == r["exec_ns"], f"{label}: path is not a partition"
    span = sum(s["end_ns"] - s["start_ns"] for s in cp["path"])
    assert span == r["exec_ns"], f"{label}: segment durations disagree"
    lb = r["log_bytes"]
    parts = lb["page"] + lb["lock"] + lb["barrier"] + lb["meta"]
    assert parts == lb["flushed_total"], f"{label}: log split leaks bytes"
    if label.endswith("/none"):
        assert lb["flushed_total"] == 0, f"{label}: None logged bytes"
    if label.endswith("/crash"):
        assert r["recovery"], f"{label}: crash run has no recovery window"
print("blame smoke: OK (schema valid, exact partitions, baseline byte-identical)")
PYEOF

echo "==> fetch-hiding gates (committed REPORT_paper.json)"
# Before the batched-prefetch path landed, 3D-FFT — the most
# remote-data-bound application — spent 56.8% of its CCL blame path
# waiting on page fetches (58.3% under None). The fetch-hiding
# machinery (DESIGN.md §15) must keep that share strictly below the
# pre-PR value: if a predictor or batching regression creeps in, the
# share climbs back toward stop-and-wait levels and this gate fails.
#
# The record also carries the 3D-FFT runs with the machinery ablated
# (prefetch depth 0, static homes). Under None and CCL the shipped
# defaults must stay at least 10% faster in virtual time than that
# ablated run, with the same digest: the machinery hides latency and
# never changes results. Virtual time is deterministic, so there is no
# slack for machine load.
python3 - "$PWD/REPORT_paper.json" <<'PYEOF'
import json, sys
PRE_PR = {"none": 0.583, "ccl": 0.568}
d = json.load(open(sys.argv[1]))
for proto, pre in PRE_PR.items():
    b = d["apps"]["3D-FFT"]["runs"][proto]["blame"]
    path = (b["cp_compute_ns"] + b["cp_recovery_ns"] + b["cp_wait_page_ns"]
            + b["cp_wait_lock_ns"] + b["cp_wait_barrier_ns"] + b["cp_wait_flush_ns"])
    share = b["cp_wait_page_ns"] / path
    assert share < pre, \
        f"3D-FFT/{proto}: page-wait blame share {share:.3f} not below pre-PR {pre}"
    print(f"3D-FFT/{proto}: page-wait share {share:.3f} < pre-PR {pre} OK")
ablation = d["fetch_ablation"]
app = ablation["app"]
for proto in ("none", "ccl"):
    on, off = d["apps"][app]["runs"][proto], ablation["runs"][proto]
    assert on["digest"] == off["digest"], \
        f"{app}/{proto}: fetch hiding changed the digest"
    win = 100.0 * (1.0 - on["exec_ns"] / off["exec_ns"])
    assert on["exec_ns"] <= 0.9 * off["exec_ns"], \
        f"{app}/{proto}: fetch-hiding win {win:.1f}% below 10%"
    print(f"{app}/{proto}: fetch-hiding win {off['exec_ns']} ns -> "
          f"{on['exec_ns']} ns ({win:.1f}%) >= 10% OK")
PYEOF

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --check

echo "verify: OK"
