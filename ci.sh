#!/usr/bin/env sh
# Local CI: formatting, lints, tests. Run from the repo root.
set -eu

# Every smoke that backgrounds a server registers it here; the trap
# keeps a failed step from leaving an orphan holding its port (and
# this script's stdout pipe) open. Every temporary file goes under one
# private directory, so two runs on one host never read each other's
# outputs, and the trap removes it.
DCNR_BG_PIDS=""
DCNR_TMP=$(mktemp -d)
trap 'for p in $DCNR_BG_PIDS; do kill "$p" 2>/dev/null || true; done; rm -rf "$DCNR_TMP"' EXIT

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> unsafe guard (outside crates/compat/, only signal.rs allows unsafe code)"
dcnr_unsafe=$(grep -rl --include='*.rs' 'allow(unsafe_code)' crates tests examples perfbench/src \
    | grep -v -e '^crates/compat/' -e '^crates/server/src/signal\.rs$' || true)
[ -z "$dcnr_unsafe" ] || {
    echo "#[allow(unsafe_code)] outside crates/compat/ and signal.rs:" >&2
    echo "$dcnr_unsafe" >&2
    exit 1
}

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc (warnings, such as broken intra-doc links, fail)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "==> cargo test -q"
cargo test -q

echo "==> forwarding properties (release, 512 cases)"
# Incremental forwarding tables must equal a fresh build's, and their
# reachability must equal BFS, after every fail or restore step. Which
# devices an apply recomputes depends on the tiers a failure touches,
# so these properties run at eight times the default case count.
PROPTEST_CASES=512 cargo test --release -q -p dcnr-topology -- forwarding zoo_incremental

echo "==> sweep smoke (release, byte-identity across worker counts)"
cargo build --release --bin dcnr
./target/release/dcnr sweep --scenario backbone --seeds 2 --jobs 2 \
    --resamples 200 --bench-json "$DCNR_TMP/sweep_smoke.json" >/dev/null
grep -q '"identical_output": true' "$DCNR_TMP/sweep_smoke.json"

echo "==> checkpoint smoke (resume re-executes a removed shard to the same bytes)"
./target/release/dcnr sweep --scenario backbone --seeds 3 --resamples 200 \
    --checkpoint "$DCNR_TMP/checkpoint" >"$DCNR_TMP/checkpoint_first.out" 2>/dev/null
rm "$DCNR_TMP/checkpoint/replica-0001.json"
./target/release/dcnr sweep --resume "$DCNR_TMP/checkpoint" \
    >"$DCNR_TMP/checkpoint_resumed.out" 2>/dev/null
cmp "$DCNR_TMP/checkpoint_first.out" "$DCNR_TMP/checkpoint_resumed.out"
# A removed sweep flag such as --retries is a usage error (exit 2), never
# silently ignored.
dcnr_retries_status=0
./target/release/dcnr sweep --scenario backbone --seeds 3 --retries 0 \
    >/dev/null 2>&1 || dcnr_retries_status=$?
[ "$dcnr_retries_status" -eq 2 ] || {
    echo "expected exit 2 for sweep --retries, got $dcnr_retries_status" >&2
    exit 1
}
# A mistyped loadgen scenario flag fails as the command line's own
# error, named as typed, before any load is driven.
dcnr_typo_status=0
./target/release/dcnr loadgen --sacle 2 \
    >"$DCNR_TMP/loadgen_typo.out" 2>"$DCNR_TMP/loadgen_typo.err" || dcnr_typo_status=$?
[ "$dcnr_typo_status" -eq 2 ] || {
    echo "expected exit 2 for loadgen --sacle, got $dcnr_typo_status" >&2
    exit 1
}
grep -q '"--sacle"' "$DCNR_TMP/loadgen_typo.err"
if grep -q -e 'query string' -e 'driving' "$DCNR_TMP/loadgen_typo.out" "$DCNR_TMP/loadgen_typo.err"; then
    echo "loadgen --sacle reads as a query-string error or drove load" >&2
    exit 1
fi

echo "==> telemetry smoke (sweep bytes identical with --metrics/--trace on)"
# The hard invariant: telemetry must not perturb a single RNG draw, so
# the sweep report is byte-for-byte the same with and without it.
./target/release/dcnr sweep --scenario backbone --seeds 2 --jobs 2 \
    --resamples 200 >"$DCNR_TMP/sweep_plain.out" 2>/dev/null
./target/release/dcnr --metrics "$DCNR_TMP/metrics.prom" --trace "$DCNR_TMP/trace.json" \
    sweep --scenario backbone --seeds 2 --jobs 2 \
    --resamples 200 >"$DCNR_TMP/sweep_telem.out" 2>/dev/null
cmp "$DCNR_TMP/sweep_plain.out" "$DCNR_TMP/sweep_telem.out"
# The metrics file must be valid Prometheus text with the replica
# series folded in, and the trace must carry events.
grep -q '^# TYPE dcnr_backbone_fiber_cuts_total counter' "$DCNR_TMP/metrics.prom"
grep -q '^dcnr_backbone_fiber_cuts_total ' "$DCNR_TMP/metrics.prom"
grep -q '^# TYPE dcnr_phase_duration_micros histogram' "$DCNR_TMP/metrics.prom"
grep -q '"kind": "fiber_cut"' "$DCNR_TMP/trace.json"

echo "==> intra telemetry smoke (report identical with --metrics/--trace on, all intra trace kinds)"
# The intra trace sites record unformatted payloads that are written
# out only when the trace is snapshotted. At scale 0.15 the retained
# head and tail hold all four kinds (from 0.2 up the tail holds only
# SEV events), so every intra detail writer runs here.
./target/release/dcnr intra --scale 0.15 --seed 7 >"$DCNR_TMP/intra_plain.out" 2>/dev/null
./target/release/dcnr --metrics "$DCNR_TMP/intra_metrics.prom" --trace "$DCNR_TMP/intra_trace.json" \
    intra --scale 0.15 --seed 7 >"$DCNR_TMP/intra_telem.out" 2>/dev/null
cmp "$DCNR_TMP/intra_plain.out" "$DCNR_TMP/intra_telem.out"
for dcnr_kind in device_failure repair_dispatch sev_open sev_close; do
    grep -q "\"kind\": \"$dcnr_kind\"" "$DCNR_TMP/intra_trace.json" || {
        echo "intra trace holds no $dcnr_kind event" >&2
        exit 1
    }
done
cargo run --release -q --example validate_telemetry -- "$DCNR_TMP/intra_metrics.prom"

echo "==> profile smoke (quarter scale, parseable profile JSON)"
./target/release/dcnr --metrics "$DCNR_TMP/profile_metrics.prom" \
    profile --scale 0.25 --json "$DCNR_TMP/profile_smoke.json" >/dev/null 2>&1
# The profile must attribute issue generation per device type and the
# artifact render, and parse as JSON; the metrics file must pass the
# strict validator.
grep -q '"phase": "intra.issue_gen.rsw"' "$DCNR_TMP/profile_smoke.json"
grep -q '"phase": "intra.remediation"' "$DCNR_TMP/profile_smoke.json"
grep -q '"phase": "intra.render"' "$DCNR_TMP/profile_smoke.json"
cargo run --release -q --example validate_telemetry -- \
    "$DCNR_TMP/profile_metrics.prom" "$DCNR_TMP/profile_smoke.json"

echo "==> telemetry tax gate (intra benchmark: collector_ms <= 1.2 x latency_ms)"
# The benchmark's intra workload runs every seed with no collector and
# then with one, and checks the two reports are byte-identical. The
# replica wall with a collector may cost at most 1.2x the plain one.
cargo run --release --quiet --offline --manifest-path perfbench/Cargo.toml -- \
    --workload intra --seed 1 --seconds 10 --trace 0 \
    >"$DCNR_TMP/telemetry_tax.out" 2>/dev/null || {
    echo "intra benchmark failed:" >&2
    tail -n 1 "$DCNR_TMP/telemetry_tax.out" >&2
    exit 1
}
dcnr_tax=$(tail -n 1 "$DCNR_TMP/telemetry_tax.out")
echo "$dcnr_tax" | grep -q '"correct":true'
dcnr_metric() {
    echo "$dcnr_tax" | sed -n "s/.*\"$1\":{\"value\":\([0-9.eE+-]*\).*/\1/p"
}
dcnr_plain_ms=$(dcnr_metric latency_ms)
dcnr_collector_ms=$(dcnr_metric collector_ms)
awk -v c="$dcnr_collector_ms" -v l="$dcnr_plain_ms" 'BEGIN { exit !(c != "" && l > 0 && c <= 1.2 * l) }' || {
    echo "telemetry tax: collector_ms $dcnr_collector_ms > 1.2 x latency_ms $dcnr_plain_ms" >&2
    exit 1
}

echo "==> routes smoke (quarter scale, emergent severity, byte-identity)"
# The artifact listing must enumerate the registry (stable order, exit 0).
./target/release/dcnr artifact --list >"$DCNR_TMP/artifact_list.out"
grep -q '^routes.severity_mix' "$DCNR_TMP/artifact_list.out"
grep -q '^table1' "$DCNR_TMP/artifact_list.out"
# All three routes artifacts render at quarter scale, with the severity
# mix emergent (derived from forwarding-state losses, not sampled).
./target/release/dcnr routes --scale 0.25 >"$DCNR_TMP/routes_smoke.out"
grep -q 'BFS' "$DCNR_TMP/routes_smoke.out"
grep -q 'no Table 3 sampling' "$DCNR_TMP/routes_smoke.out"
grep -q 'mean slowdown' "$DCNR_TMP/routes_smoke.out"
# Sweep byte-identity: --jobs 1 and --jobs 2 must render the same bytes.
./target/release/dcnr sweep --scenario routes --seeds 2 --jobs 1 \
    --resamples 200 --scale 0.25 >"$DCNR_TMP/routes_jobs1.out" 2>/dev/null
./target/release/dcnr sweep --scenario routes --seeds 2 --jobs 2 \
    --resamples 200 --scale 0.25 >"$DCNR_TMP/routes_jobs2.out" 2>/dev/null
cmp "$DCNR_TMP/routes_jobs1.out" "$DCNR_TMP/routes_jobs2.out"
# The routes profile must time the forwarding-table build + invalidation
# (and the allocating-vs-scratch blast sweep) at scale 1. It goes to
# the temporary directory so the committed BENCH_routes.json stays
# untouched.
./target/release/dcnr profile --scenario routes --scale 1 \
    --json "$DCNR_TMP/routes_profile.json" >/dev/null
grep -q '"phase": "routes.forwarding.build"' "$DCNR_TMP/routes_profile.json"
grep -q '"phase": "routes.forwarding.invalidate"' "$DCNR_TMP/routes_profile.json"
grep -q '"phase": "routes.blast.alloc_per_candidate"' "$DCNR_TMP/routes_profile.json"
grep -q '"phase": "routes.blast.scratch_reuse"' "$DCNR_TMP/routes_profile.json"

echo "==> survivability smoke (topology zoo, ranking flip, byte-identity)"
# The topology listing must enumerate the zoo (stable order, exit 0),
# and the artifact registry must carry the surv.* family.
./target/release/dcnr topology --list >"$DCNR_TMP/topology_list.out"
grep -q '^fat-tree' "$DCNR_TMP/topology_list.out"
grep -q '^dcell' "$DCNR_TMP/topology_list.out"
grep -q '^surv.ranking' "$DCNR_TMP/artifact_list.out"
grep -q '^surv.lifespan' "$DCNR_TMP/artifact_list.out"
# An unknown topology id is a usage error (exit 2) naming the menu.
dcnr_topo_status=0
./target/release/dcnr survivability --topology hypercube \
    >/dev/null 2>"$DCNR_TMP/topology_err.log" || dcnr_topo_status=$?
[ "$dcnr_topo_status" -eq 2 ] || {
    echo "expected exit 2 for an unknown topology, got $dcnr_topo_status" >&2
    exit 1
}
grep -q 'valid ids' "$DCNR_TMP/topology_err.log"
# Both surv artifacts render at quarter scale with the headline lines:
# per-class zoo rankings, the dcell/fat-tree flip, and lifespan bands.
./target/release/dcnr survivability --scale 0.25 >"$DCNR_TMP/surv_smoke.out"
grep -q 'survivability ranking @30% switch loss' "$DCNR_TMP/surv_smoke.out"
grep -q 'ranking flip (dcell vs fat-tree, switch loss vs server loss): true' \
    "$DCNR_TMP/surv_smoke.out"
grep -q 'lifespan band \[lo hi\]' "$DCNR_TMP/surv_smoke.out"
# Sweep byte-identity on a zoo member: --jobs 1 and --jobs 2 must
# render the same cross-seed bands.
./target/release/dcnr sweep --scenario survivability --seeds 2 --jobs 1 \
    --resamples 200 --scale 0.25 --topology dcell \
    >"$DCNR_TMP/surv_jobs1.out" 2>/dev/null
./target/release/dcnr sweep --scenario survivability --seeds 2 --jobs 2 \
    --resamples 200 --scale 0.25 --topology dcell \
    >"$DCNR_TMP/surv_jobs2.out" 2>/dev/null
cmp "$DCNR_TMP/surv_jobs1.out" "$DCNR_TMP/surv_jobs2.out"
# The survivability profile must time the zoo sweep + lifespan replay
# at scale 1. It goes to the temporary directory so the committed
# BENCH_survivability.json stays untouched.
./target/release/dcnr profile --scenario survivability --scale 1 \
    --json "$DCNR_TMP/surv_profile.json" >/dev/null
grep -q '"phase": "surv.ranking.sweep"' "$DCNR_TMP/surv_profile.json"
grep -q '"phase": "surv.lifespan.replay"' "$DCNR_TMP/surv_profile.json"

echo "==> serve smoke (ephemeral port, loadgen, byte-identity, graceful drain)"
# Start the report server on an ephemeral port in admin (test) mode.
rm -f "$DCNR_TMP/serve_port"
./target/release/dcnr -q serve --addr 127.0.0.1:0 --admin \
    --port-file "$DCNR_TMP/serve_port" &
DCNR_SERVE_PID=$!
DCNR_BG_PIDS="$DCNR_BG_PIDS $DCNR_SERVE_PID"
# Wait for the port file (the server writes it after binding).
i=0
while [ ! -s "$DCNR_TMP/serve_port" ]; do
    i=$((i + 1))
    [ "$i" -le 100 ] || { echo "server never bound" >&2; exit 1; }
    sleep 0.1
done
DCNR_ADDR=$(cat "$DCNR_TMP/serve_port")
# Liveness, then a verified closed-loop load run: every response body is
# compared byte-for-byte against a local render of the same scenario.
./target/release/dcnr fetch "$DCNR_ADDR" /healthz | grep -q '^ok$'
# Memory gate: four CLI-default intra scenarios fill the resident
# contexts. A study keeps Table 1 and its SEVs, not one triage outcome
# per issue, so the server measured about 26 MiB of VmRSS here (about
# 85 MiB when every outcome was kept).
for dcnr_seed in 1 2 3 4; do
    ./target/release/dcnr -q fetch "$DCNR_ADDR" "/artifacts/table1?seed=$dcnr_seed" >/dev/null
done
dcnr_rss_kb=$(awk '/^VmRSS:/ { print $2 }' "/proc/$DCNR_SERVE_PID/status")
[ -n "$dcnr_rss_kb" ] && [ "$dcnr_rss_kb" -le $((48 * 1024)) ] || {
    echo "serve holds ${dcnr_rss_kb:-?} kB of VmRSS with four intra scenarios (limit 48 MiB)" >&2
    exit 1
}
./target/release/dcnr -q loadgen --addr "$DCNR_ADDR" \
    --clients 4 --requests 6 --verify \
    --artifacts fig15,fig16,table4 --scale 0.25 --edges 40 --vendors 16 \
    >/dev/null
# The server renders every artifact of a scenario from one resident
# study: 2 scenario seeds, 2 backbone simulations, however many misses.
./target/release/dcnr -q fetch "$DCNR_ADDR" /metrics >"$DCNR_TMP/serve_studies.prom"
grep -qx 'dcnr_phase_duration_micros_count{phase="backbone.sim"} 2' \
    "$DCNR_TMP/serve_studies.prom" || {
    echo "serve ran the backbone study other than once per scenario:" >&2
    grep 'phase="backbone.sim"' "$DCNR_TMP/serve_studies.prom" >&2 || true
    exit 1
}
# Every scenario flag reaches the server: with --topology the verified
# surv.lifespan bodies must be the dcell render, not the default's.
./target/release/dcnr -q loadgen --addr "$DCNR_ADDR" --verify \
    --artifacts surv.lifespan --scale 0.25 --topology dcell >/dev/null
# /metrics must pass the strict Prometheus validator and report traffic.
./target/release/dcnr -q fetch "$DCNR_ADDR" /metrics --validate \
    >"$DCNR_TMP/serve_metrics.prom"
grep -q '^dcnr_server_requests_total' "$DCNR_TMP/serve_metrics.prom"
grep -q '^dcnr_server_cache_hits_total' "$DCNR_TMP/serve_metrics.prom"
# One artifact fetched over HTTP must be byte-identical to the CLI.
./target/release/dcnr artifact fig15 --seed 11 --scale 0.25 \
    --edges 40 --vendors 16 >"$DCNR_TMP/artifact_cli.out"
./target/release/dcnr -q fetch "$DCNR_ADDR" \
    '/artifacts/fig15?seed=11&scale=0.25&edges=40&vendors=16' \
    >"$DCNR_TMP/artifact_http.out"
cmp "$DCNR_TMP/artifact_cli.out" "$DCNR_TMP/artifact_http.out"
# A surv artifact round-trips too: --topology becomes ?topology= and
# the HTTP bytes match the CLI render.
./target/release/dcnr artifact surv.lifespan --seed 11 --scale 0.25 \
    --topology dcell >"$DCNR_TMP/surv_cli.out"
./target/release/dcnr -q fetch "$DCNR_ADDR" \
    '/artifacts/surv.lifespan?seed=11&scale=0.25&topology=dcell' \
    >"$DCNR_TMP/surv_http.out"
cmp "$DCNR_TMP/surv_cli.out" "$DCNR_TMP/surv_http.out"
# Graceful drain: /admin/shutdown must end the server with exit 0.
./target/release/dcnr -q fetch "$DCNR_ADDR" /admin/shutdown >/dev/null
wait "$DCNR_SERVE_PID"

echo "==> chaos-off identity smoke (zero-rate shim is byte-invisible)"
# A serve with the fault shim installed but every rate at zero must
# produce responses byte-identical to the plain CLI render.
rm -f "$DCNR_TMP/chaos_off_port"
./target/release/dcnr -q serve --addr 127.0.0.1:0 --admin --chaos-seed 7 \
    --port-file "$DCNR_TMP/chaos_off_port" &
DCNR_CHAOS_OFF_PID=$!
DCNR_BG_PIDS="$DCNR_BG_PIDS $DCNR_CHAOS_OFF_PID"
i=0
while [ ! -s "$DCNR_TMP/chaos_off_port" ]; do
    i=$((i + 1))
    [ "$i" -le 100 ] || { echo "chaos-off server never bound" >&2; exit 1; }
    sleep 0.1
done
DCNR_ADDR=$(cat "$DCNR_TMP/chaos_off_port")
./target/release/dcnr -q fetch "$DCNR_ADDR" \
    '/artifacts/fig15?seed=11&scale=0.25&edges=40&vendors=16' \
    >"$DCNR_TMP/artifact_chaos_off.out"
cmp "$DCNR_TMP/artifact_cli.out" "$DCNR_TMP/artifact_chaos_off.out"
./target/release/dcnr -q fetch "$DCNR_ADDR" /admin/shutdown >/dev/null
wait "$DCNR_CHAOS_OFF_PID"

echo "==> chaos-serve smoke (resilience harness verdict under faults)"
# Full chaos: injected delays, resets, truncations, corruptions, and
# stalls. The retrying clients must still reach a >= 99% eventual
# success rate with ZERO undetected corruptions, or loadgen exits 1.
rm -f "$DCNR_TMP/chaos_port"
./target/release/dcnr -q serve --addr 127.0.0.1:0 --admin --workers 0 \
    --chaos-seed 7 --chaos-reset-rate 0.06 --chaos-truncate-rate 0.06 \
    --chaos-corrupt-rate 0.06 --chaos-read-delay-rate 0.1 \
    --chaos-write-delay-rate 0.1 --chaos-delay-ms 5 \
    --chaos-stall-rate 0.03 --chaos-stall-ms 50 \
    --port-file "$DCNR_TMP/chaos_port" &
DCNR_CHAOS_PID=$!
DCNR_BG_PIDS="$DCNR_BG_PIDS $DCNR_CHAOS_PID"
i=0
while [ ! -s "$DCNR_TMP/chaos_port" ]; do
    i=$((i + 1))
    [ "$i" -le 100 ] || { echo "chaos server never bound" >&2; exit 1; }
    sleep 0.1
done
DCNR_ADDR=$(cat "$DCNR_TMP/chaos_port")
# --retries 6: fault assignment is per connection *index*, and which
# index a retry lands on is a thread race — on a 1-CPU host the default
# budget of 3 occasionally walks a run of corrupt-flagged indices and
# flakes the 99% floor. Six attempts puts the verdict on the harness,
# not the scheduler.
./target/release/dcnr -q loadgen --addr "$DCNR_ADDR" --chaos \
    --clients 4 --requests 8 --min-success 0.99 --retries 6 \
    --artifacts fig15,fig16,table4 --scale 0.25 --edges 40 --vendors 16 \
    --bench-json "$DCNR_TMP/resilience_smoke.json" \
    >"$DCNR_TMP/chaos_loadgen.out"
grep -q 'chaos verdict: PASS' "$DCNR_TMP/chaos_loadgen.out"
grep -q '"undetected_corruption": 0' "$DCNR_TMP/resilience_smoke.json"
grep -q '"verdict": "pass"' "$DCNR_TMP/resilience_smoke.json"
# The chaos injection counters must appear on a validated /metrics.
# fetch retries under chaos, so the scrape itself survives injections.
./target/release/dcnr -q fetch "$DCNR_ADDR" /metrics --validate \
    >"$DCNR_TMP/chaos_metrics.prom"
grep -q '^dcnr_server_chaos_injections_total' "$DCNR_TMP/chaos_metrics.prom"
grep -q '^dcnr_server_workers ' "$DCNR_TMP/chaos_metrics.prom"
./target/release/dcnr -q fetch "$DCNR_ADDR" /admin/shutdown >/dev/null
wait "$DCNR_CHAOS_PID"

echo "ci: all green"
