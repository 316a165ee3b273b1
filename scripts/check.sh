#!/usr/bin/env bash
# Local gate: everything CI would run, offline.
#   scripts/check.sh [--quick] [--perf]   (flags in either order)
#
# Always: the grep gates (the CLI option tables, fits routed through the
# FitCache, replay options routed through ReplayRequest, timing routed
# through ibox-obs with one span macro, ingest on the one session log),
# release build, workspace tests, the vendored serde shims' unit tests,
# the request ledger's self-tests (benchmark/), clippy -D warnings,
# rustfmt --check, and last the scripts/loc.sh size report, which fails
# when a crate's runtime panic sites outgrow scripts/panic_budget.txt.
# --quick additionally smoke-tests the release binary end to end: a
# 5-spec batch file (every model kind, incl. a tiny iBoxML) through
# `ibox batch --jobs 2 --model-cache`, one of its cached model envelopes
# replayed by `ibox replay`, then a fit → save → reload → replay loop
# asserting byte-identical traces.
# --quick also smoke-tests the serving daemon, including a causally
# traced fit (`--trace-id` → `GET /trace/<id>`), a model dir holding no
# JSON but envelopes and the run manifest, and the prometheus
# metrics exposition (a replay latency p95 and the model-fit span
# quantiles must be in it), plus a `--fidelity flow` replay smoke (explicit
# `--fidelity packet` must stay byte-identical to the default).
# --quick also smoke-tests composed paths: a 2-stage `--path` replay at
# packet and flow fidelity, a hostile `--path` file refused with a
# sentence, plus a legacy schema-1 artifact replayed byte-identically to
# the current schema.
# --quick also smoke-tests streaming ingest: a 3-chunk `ibox ingest
# append` + `finalize` against the live daemon, asserting the fitted
# lineage version replays byte-identically to a one-shot fit and that
# bare-id replays pin to the latest version; then a crash smoke on a
# second daemon: 4 chunks, `kill -9`, 1000 bytes chopped off the session
# log, restart — status answers at the last complete chunk, the re-sent
# stream finalizes.
# --quick also runs `paper --quick` and `perf --quick`: every row of the
# paper's evaluation and of the perf table at toy sizes, failing when a
# row errs (they write and gate nothing).
# --perf additionally runs `perf` and `paper` with every row named, i.e.
# their gates: `perf` at full scale, one repeat, fails when a claim
# expected to hold fails or a gated ratio of interleaved arms leaves the
# min–max band BENCH_perf.json records, widened by that spread plus the
# ratio's per-round interquartile range; `paper` at
# gate scale (full, but table1 at a fixed reduced call count; canonical
# seeds only) fails when a verdict comes out other than BENCH_paper.json
# records or a statistic leaves its band the same way.
set -euo pipefail
cd "$(dirname "$0")/.."

run() {
    echo "==> $*"
    "$@"
}

# Gate: the typed OptSpec/RunSpec APIs replaced these entry points — fail
# fast if an untyped variant creeps back in.
gate() {
    local pattern="$1" where="$2" why="$3"
    if grep -rn --include='*.rs' -E "$pattern" "$where" > /dev/null 2>&1; then
        echo "FAIL: $why" >&2
        grep -rn --include='*.rs' -E "$pattern" "$where" >&2
        exit 1
    fi
}
gate 'const FLAGS' crates/cli \
    "ad-hoc FLAGS table reintroduced in the CLI — declare options in the OptSpec tables (crates/cli/src/commands.rs)"
# The PathModel split: fits go through fit_model/FitCache (counted,
# cached, serializable), never through the concrete fit entry points.
gate '(IBoxNet|StatisticalLossModel)::fit' crates/cli \
    "direct model fit in the CLI — route through ibox::fit_model / FitCache so fits are counted and cached"
gate '(IBoxNet|StatisticalLossModel)::fit' crates/core/src/abtest.rs \
    "direct model fit in the A/B harness — route through ibox::fit_model / FitCache"
gate '(IBoxNet|StatisticalLossModel)::fit' crates/core/src/batch.rs \
    "direct model fit in the batch executor — route through ibox::fit_model / FitCache"
# One front door: protocols are looked up where a replay or a synthesis is
# validated (ibox::ReplayRequest, ibox_testbed::synth), never per surface.
gate 'by_name\(' crates/cli \
    "protocol lookup in the CLI — build an ibox::ReplayRequest (or call ibox_testbed::synth) so every surface validates alike"
gate 'by_name\(' crates/serve/src/routes.rs \
    "protocol lookup in the routes — build an ibox::ReplayRequest (or call ibox_testbed::synth) so every surface validates alike"
# Timing in the serving/runner layers goes through the obs facade so it
# always lands in metrics/traces — no invisible raw clock reads.
gate 'Instant::now\(' crates/serve/src \
    "raw Instant::now() timing in ibox-serve — use ibox_obs::Stopwatch or span! so the timing is observable"
gate 'Instant::now\(' crates/runner/src \
    "raw Instant::now() timing in ibox-runner — use ibox_obs::Stopwatch or span! so the timing is observable"
# A session is one append-only log folded by Session::check/apply: the
# file-per-chunk layout and its second (recovery) reader must not return.
for name in 'manifest\.json' 'chunk-' 'pending-' 'write_manifest' 'load_session'; do
    gate "$name" crates/ingest/src \
        "'$name' in the ingest runtime — a session is one <id>.log whose frames Session::apply folds, live and on recovery alike"
done
# One span macro: span! aggregates always and joins the active trace.
gate 'trace_span!' crates \
    "trace_span! is gone — span! records the trace event too when a trace is active"

quick=0
perf=0
for arg in "$@"; do
    case "$arg" in
        --quick) quick=1 ;;
        --perf) perf=1 ;;
        *) echo "usage: scripts/check.sh [--quick] [--perf]" >&2; exit 2 ;;
    esac
done

run cargo build --release --workspace --offline
run cargo test -q --workspace --offline
# The vendored serde shims sit outside the workspace: their unit tests (the
# JSON writer's number/string/layout goldens) need naming.
run cargo test -q --offline -p serde -p serde_json
# The request ledger is a workspace of its own; its self-tests include a
# smoke pass that byte-checks every reply of all five workloads against
# offline references, so a byte drift in any reply fails here first.
run cargo test -q --offline --manifest-path benchmark/Cargo.toml
run cargo clippy --workspace --offline -- -D warnings
run cargo fmt --check

if (( quick )); then
    echo "==> batch smoke: 4 specs at --jobs 2"
    tmp="$(mktemp -d)"
    trap 'rm -rf "$tmp"' EXIT
    cat > "$tmp/batch.json" << 'EOF'
{
  "jobs": 1,
  "runs": [
    {"id": "smoke/iboxnet", "source": {"Synth": {"profile": "ethernet", "protocol": "cubic", "seed": 70}}, "protocol": "cubic", "duration_s": 4.0, "seed": 1, "model": "IBoxNet"},
    {"id": "smoke/nocross", "source": {"Synth": {"profile": "ethernet", "protocol": "cubic", "seed": 71}}, "protocol": "cubic", "duration_s": 4.0, "seed": 2, "model": "IBoxNetNoCross"},
    {"id": "smoke/statloss", "source": {"Synth": {"profile": "ethernet", "protocol": "cubic", "seed": 72}}, "protocol": "cubic", "duration_s": 4.0, "seed": 3, "model": "StatisticalLoss"},
    {"id": "smoke/reorder", "source": {"Synth": {"profile": "ethernet", "protocol": "cubic", "seed": 73}}, "protocol": "cubic", "duration_s": 4.0, "seed": 4, "model": "IBoxNetReorder"},
    {"id": "smoke/iboxml", "source": {"Synth": {"profile": "ethernet", "protocol": "cubic", "seed": 70}}, "protocol": "cubic", "duration_s": 4.0, "seed": 5, "model": {"IBoxMl": {"hidden_sizes": [8], "epochs": 2, "tbptt": 32}}}
  ]
}
EOF
    run ./target/release/ibox batch "$tmp/batch.json" --jobs 2 --model-cache "$tmp/cache" -o "$tmp/results.json"
    test -s "$tmp/results.json" || { echo "FAIL: batch smoke wrote no results" >&2; exit 1; }
    grep -q 'iBoxML' "$tmp/results.json" || { echo "FAIL: batch smoke missing the iBoxML record" >&2; exit 1; }
    # The fit cache stores each model as the envelope `ibox replay` loads.
    cached=("$tmp/cache"/*.artifact.json)
    [[ -f "${cached[0]}" ]] || { echo "FAIL: the batch smoke cached no model envelope" >&2; ls -la "$tmp/cache" >&2; exit 1; }
    run ./target/release/ibox replay "${cached[0]}" --protocol vegas --duration 2 --seed 3 -o "$tmp/replay-cached.json"
    grep -q '"records"' "$tmp/replay-cached.json" \
        || { echo "FAIL: a cached model envelope replayed no trace records" >&2; exit 1; }
    echo "batch smoke passed"

    echo "==> artifact smoke: fit, save, reload, replay byte-identically"
    run ./target/release/ibox synth --profile ethernet --protocol cubic --duration 4 --seed 81 -o "$tmp/train.json"
    run ./target/release/ibox fit "$tmp/train.json" -o "$tmp/model.json"
    run ./target/release/ibox replay "$tmp/model.json" --protocol vegas --duration 4 --seed 9 -o "$tmp/replay1.json" | tee "$tmp/log1.txt"
    run ./target/release/ibox replay "$tmp/model.json" --protocol vegas --duration 4 --seed 9 -o "$tmp/replay2.json" | tee "$tmp/log2.txt"
    cmp "$tmp/replay1.json" "$tmp/replay2.json" \
        || { echo "FAIL: a saved-then-loaded model did not replay byte-identically" >&2; exit 1; }
    diff <(grep 'trace digest' "$tmp/log1.txt") <(grep 'trace digest' "$tmp/log2.txt") \
        || { echo "FAIL: replay digests diverged across reloads" >&2; exit 1; }
    echo "artifact smoke passed"

    echo "==> fidelity smoke: --fidelity flow replays, packet stays the default"
    run ./target/release/ibox replay "$tmp/model.json" --protocol cubic --duration 4 --seed 9 -o "$tmp/replay-pkt.json"
    run ./target/release/ibox replay "$tmp/model.json" --protocol cubic --duration 4 --seed 9 --fidelity packet -o "$tmp/replay-pkt2.json"
    cmp "$tmp/replay-pkt.json" "$tmp/replay-pkt2.json" \
        || { echo "FAIL: explicit --fidelity packet differs from the default replay" >&2; exit 1; }
    run ./target/release/ibox replay "$tmp/model.json" --protocol cubic --duration 4 --seed 9 --fidelity flow -o "$tmp/replay-flow.json"
    grep -q '"records"' "$tmp/replay-flow.json" \
        || { echo "FAIL: flow-fidelity replay wrote no trace records" >&2; exit 1; }
    # Same schema, different engine: flow output must be a real trace
    # and must not be the packet engine's bytes.
    cmp -s "$tmp/replay-pkt.json" "$tmp/replay-flow.json" \
        && { echo "FAIL: --fidelity flow returned the packet engine's bytes" >&2; exit 1; }
    echo "fidelity smoke passed"

    echo "==> path smoke: 2-stage composed replay at packet and flow fidelity"
    cat > "$tmp/chain.json" << 'EOF'
[
  {"rate_bps": 12e6, "prop_delay_ms": 10, "buffer_bytes": 150000},
  {"rate_bps": 40e6, "prop_delay_ms": 4, "buffer_bytes": 300000}
]
EOF
    run ./target/release/ibox replay "$tmp/model.json" --protocol cubic --duration 4 --seed 9 \
        --path "$tmp/chain.json" -o "$tmp/replay-chain-pkt.json"
    grep -q '"records"' "$tmp/replay-chain-pkt.json" \
        || { echo "FAIL: composed-path replay wrote no trace records" >&2; exit 1; }
    # The chain reshapes the replay: its bytes must differ from the flat
    # single-bottleneck replay of the same (protocol, duration, seed).
    cmp -s "$tmp/replay-pkt.json" "$tmp/replay-chain-pkt.json" \
        && { echo "FAIL: --path replay returned the single-bottleneck bytes" >&2; exit 1; }
    run ./target/release/ibox replay "$tmp/model.json" --protocol cubic --duration 4 --seed 9 \
        --path "$tmp/chain.json" -o "$tmp/replay-chain-pkt2.json"
    cmp "$tmp/replay-chain-pkt.json" "$tmp/replay-chain-pkt2.json" \
        || { echo "FAIL: composed-path replay is not deterministic" >&2; exit 1; }
    run ./target/release/ibox replay "$tmp/model.json" --protocol cubic --duration 4 --seed 9 \
        --path "$tmp/chain.json" --fidelity flow -o "$tmp/replay-chain-flow.json"
    grep -q '"records"' "$tmp/replay-chain-flow.json" \
        || { echo "FAIL: flow-fidelity composed replay wrote no trace records" >&2; exit 1; }
    cmp -s "$tmp/replay-chain-pkt.json" "$tmp/replay-chain-flow.json" \
        && { echo "FAIL: flow fidelity over the chain returned the packet engine's bytes" >&2; exit 1; }
    # A stage an engine would assert on is refused with a sentence naming
    # it, not a panic.
    echo '[{"rate_bps": 12e6, "prop_delay_ms": 10, "buffer_bytes": 0}]' > "$tmp/hostile.json"
    if ./target/release/ibox replay "$tmp/model.json" --protocol cubic --duration 4 \
        --path "$tmp/hostile.json" > "$tmp/hostile.log" 2>&1; then
        echo "FAIL: a hostile --path replay exited zero" >&2; exit 1
    fi
    grep -q 'stage 0: buffer_bytes' "$tmp/hostile.log" && ! grep -q 'panicked' "$tmp/hostile.log" \
        || { echo "FAIL: hostile --path was not refused with a sentence" >&2; cat "$tmp/hostile.log" >&2; exit 1; }
    # Legacy contract: a schema-1 single-bottleneck artifact replays
    # byte-identically to the current schema.
    sed 's/"schema":3/"schema":1/' "$tmp/model.json" > "$tmp/model-v1.json"
    grep -q '"schema":1' "$tmp/model-v1.json" \
        || { echo "FAIL: could not rewrite the artifact to schema 1" >&2; exit 1; }
    run ./target/release/ibox replay "$tmp/model-v1.json" --protocol vegas --duration 4 --seed 9 \
        -o "$tmp/replay-v1.json"
    cmp "$tmp/replay1.json" "$tmp/replay-v1.json" \
        || { echo "FAIL: a schema-1 artifact did not replay byte-identically to the current schema" >&2; exit 1; }
    echo "path smoke passed"

    echo "==> serve smoke: fit + replay over HTTP, byte-identical to offline replay"
    # start_daemon <model dir> <log file>: sets $serve_pid and $base.
    start_daemon() {
        ./target/release/ibox serve --addr 127.0.0.1:0 --jobs 2 --model-cache "$1" > "$2" 2>&1 &
        serve_pid=$!
        base=""
        for _ in $(seq 1 100); do
            base="$(sed -n 's|^listening on \(http://.*\)$|\1|p' "$2" | head -1)"
            [[ -n "$base" ]] && break
            sleep 0.1
        done
        [[ -n "$base" ]] || { echo "FAIL: serve never printed its address" >&2; cat "$2" >&2; kill "$serve_pid"; exit 1; }
    }
    start_daemon "$tmp/mcache" "$tmp/serve.log"

    # Fit the artifact-smoke training trace over HTTP (synchronously).
    printf '{"wait": true, "model": "IBoxNet", "trace": %s}' "$(cat "$tmp/train.json")" > "$tmp/fit-req.json"
    run ./target/release/ibox call --data "$tmp/fit-req.json" "$base/fit" -o "$tmp/fit-resp.json"
    model_id="$(sed -n 's/.*"model":[[:space:]]*"\([^"]*\)".*/\1/p' "$tmp/fit-resp.json")"
    [[ -n "$model_id" ]] || { echo "FAIL: /fit answered without a model id" >&2; cat "$tmp/fit-resp.json" >&2; kill "$serve_pid"; exit 1; }
    run ./target/release/ibox call "$base/models" -o "$tmp/models.json"
    grep -q "$model_id" "$tmp/models.json" \
        || { echo "FAIL: fitted model $model_id missing from /models" >&2; kill "$serve_pid"; exit 1; }

    # Replay over HTTP vs the offline CLI replay of the same registry
    # artifact: the bytes must be identical.
    printf '{"model": "%s", "protocol": "vegas", "duration_s": 4, "seed": 9}' "$model_id" > "$tmp/replay-req.json"
    run ./target/release/ibox call --data "$tmp/replay-req.json" "$base/replay" -o "$tmp/replay-http.json"
    run ./target/release/ibox replay "$tmp/mcache/${model_id}.artifact.json" \
        --protocol vegas --duration 4 --seed 9 -o "$tmp/replay-offline.json"
    cmp "$tmp/replay-http.json" "$tmp/replay-offline.json" \
        || { echo "FAIL: HTTP replay bytes differ from the offline replay" >&2; kill "$serve_pid"; exit 1; }

    # A trace whose timestamps would size a 368 GB estimate is the
    # client's error (400), and the daemon keeps serving.
    printf '%s' '{"wait":true,"trace":{"meta":{"path":"hostile","protocol":"cubic","run":"far-future"},"records":[{"seq":0,"send_ns":0,"size":1400,"recv_ns":30000000},{"seq":1,"send_ns":4611686018427387903,"size":1400,"recv_ns":4611686018457387903}]}}' \
        > "$tmp/hostile-fit.json"
    if ./target/release/ibox call --data "$tmp/hostile-fit.json" "$base/fit" > "$tmp/hostile-fit.log" 2>&1; then
        echo "FAIL: a trace spanning 146 years was fitted" >&2; kill "$serve_pid"; exit 1
    fi
    grep -q 'failed with 400' "$tmp/hostile-fit.log" \
        || { echo "FAIL: the hostile /fit body was not a 400" >&2; cat "$tmp/hostile-fit.log" >&2; kill "$serve_pid"; exit 1; }
    run ./target/release/ibox call "$base/healthz" > /dev/null

    echo "==> trace smoke: request-scoped causal trace + prometheus exposition"
    # A fresh synth source (not train.json, whose model is already
    # registered) so the fit-cache and model-fit phases actually run.
    tid="00000000deadbeef"
    printf '{"wait": true, "model": "IBoxNet", "synth": {"profile": "ethernet", "protocol": "cubic", "seed": 91, "duration_s": 4}}' \
        > "$tmp/trace-fit-req.json"
    run ./target/release/ibox call --data "$tmp/trace-fit-req.json" --trace-id "$tid" "$base/fit" > /dev/null
    run ./target/release/ibox call "$base/trace/$tid" -o "$tmp/trace.json"
    for span in request.fit fit-cache model-fit; do
        grep -q "\"$span\"" "$tmp/trace.json" \
            || { echo "FAIL: span $span missing from /trace/$tid" >&2; cat "$tmp/trace.json" >&2; kill "$serve_pid"; exit 1; }
    done
    run ./target/release/ibox call "$base/trace/$tid?format=chrome" -o "$tmp/trace-chrome.json"
    grep -q '"traceEvents"' "$tmp/trace-chrome.json" \
        || { echo "FAIL: chrome export missing traceEvents" >&2; kill "$serve_pid"; exit 1; }
    run ./target/release/ibox call "$base/metrics?format=prometheus" -o "$tmp/metrics.prom"
    grep -q '^# TYPE ' "$tmp/metrics.prom" \
        || { echo "FAIL: prometheus exposition missing TYPE lines" >&2; kill "$serve_pid"; exit 1; }
    # Histogram p95 and span quantiles reach the exposition.
    for series in 'ibox_serve_latency_ms_replay{quantile="0.95"} ' 'ibox_span_model_fit_seconds{quantile="0.5"} '; do
        grep -qF "$series" "$tmp/metrics.prom" \
            || { echo "FAIL: prometheus exposition missing $series" >&2; kill "$serve_pid"; exit 1; }
    done
    echo "trace smoke passed"

    echo "==> ingest smoke: 3-chunk streaming append, finalize, version-pinned replay"
    run ./target/release/ibox ingest append "$tmp/train.json" --url "$base" --session smoke --chunks 3
    run ./target/release/ibox call "$base/ingest/sessions/smoke" -o "$tmp/ingest-status.json"
    grep -q '"chunks"' "$tmp/ingest-status.json" \
        || { echo "FAIL: ingest session status missing chunk count" >&2; kill "$serve_pid"; exit 1; }
    run ./target/release/ibox ingest finalize --url "$base" --session smoke
    run ./target/release/ibox call "$base/models/smoke/versions" -o "$tmp/ingest-versions.json"
    grep -q '"smoke-v1"' "$tmp/ingest-versions.json" \
        || { echo "FAIL: finalized session missing from the model lineage" >&2; cat "$tmp/ingest-versions.json" >&2; kill "$serve_pid"; exit 1; }
    # Replaying the bare session id resolves to the latest version; an
    # explicit pin of that version must answer the same bytes, and both
    # must match the one-shot HTTP fit of the same training trace.
    printf '{"model": "smoke", "protocol": "vegas", "duration_s": 4, "seed": 9}' > "$tmp/ingest-replay-req.json"
    run ./target/release/ibox call --data "$tmp/ingest-replay-req.json" "$base/replay" -o "$tmp/ingest-replay-latest.json"
    printf '{"model": "smoke-v1", "protocol": "vegas", "duration_s": 4, "seed": 9}' > "$tmp/ingest-replay-pin-req.json"
    run ./target/release/ibox call --data "$tmp/ingest-replay-pin-req.json" "$base/replay" -o "$tmp/ingest-replay-pinned.json"
    cmp "$tmp/ingest-replay-latest.json" "$tmp/ingest-replay-pinned.json" \
        || { echo "FAIL: latest-version replay differs from the pinned-version replay" >&2; kill "$serve_pid"; exit 1; }
    cmp "$tmp/ingest-replay-latest.json" "$tmp/replay-http.json" \
        || { echo "FAIL: streamed-ingest fit did not replay byte-identically to the one-shot fit" >&2; kill "$serve_pid"; exit 1; }
    # The same far-future trace streamed in: accepted, then refused at
    # finalize with a 409, and the daemon keeps serving.
    sed 's/^{"wait":true,"trace":\(.*\)}$/\1/' "$tmp/hostile-fit.json" > "$tmp/hostile-trace.json"
    run ./target/release/ibox ingest append "$tmp/hostile-trace.json" --url "$base" --session hostile --chunks 1
    if ./target/release/ibox ingest finalize --url "$base" --session hostile > "$tmp/hostile-finalize.log" 2>&1; then
        echo "FAIL: a session spanning 146 years was finalized" >&2; kill "$serve_pid"; exit 1
    fi
    grep -q '409' "$tmp/hostile-finalize.log" \
        || { echo "FAIL: the hostile finalize was not a 409" >&2; cat "$tmp/hostile-finalize.log" >&2; kill "$serve_pid"; exit 1; }
    run ./target/release/ibox call "$base/healthz" > /dev/null
    echo "ingest smoke passed"

    run ./target/release/ibox call --post "$base/shutdown" > /dev/null
    wait "$serve_pid" \
        || { echo "FAIL: serve exited nonzero after graceful shutdown" >&2; exit 1; }
    test -f "$tmp/mcache/serve.manifest.json" \
        || { echo "FAIL: serve wrote no run manifest on exit" >&2; exit 1; }
    # One file per fitted model: the daemon writes no bare `<id>.json`.
    stray="$(find "$tmp/mcache" -maxdepth 1 -name '*.json' ! -name '*.artifact.json' ! -name serve.manifest.json)"
    [[ -z "$stray" ]] || { echo "FAIL: the serve smoke left JSON that is not an envelope: $stray" >&2; exit 1; }
    echo "serve smoke passed"

    echo "==> crash smoke: kill -9 mid-stream, torn session log, restart, resume, finalize"
    start_daemon "$tmp/crash" "$tmp/crash.log"
    run ./target/release/ibox ingest append "$tmp/train.json" --url "$base" --session crash --chunks 4
    kill -9 "$serve_pid"
    wait "$serve_pid" 2> /dev/null || true
    log="$tmp/crash/ingest/crash.log"
    [[ "$(ls "$tmp/crash/ingest")" == crash.log ]] \
        || { echo "FAIL: the ingest dir holds more than the one session log" >&2; ls -la "$tmp/crash/ingest" >&2; exit 1; }
    truncate -s -1000 "$log"
    # What recovery must answer: the chunk frames that are still complete
    # (one frame per newline, the header first).
    want=$(($(wc -l < "$log") - 1))
    start_daemon "$tmp/crash" "$tmp/crash.log"
    run ./target/release/ibox call "$base/ingest/sessions/crash" -o "$tmp/crash-status.json"
    grep -q "\"chunks\":$want," "$tmp/crash-status.json" \
        || { echo "FAIL: recovered session does not stand at its $want complete chunks" >&2; cat "$tmp/crash-status.json" >&2; kill "$serve_pid"; exit 1; }
    run ./target/release/ibox call "$base/ingest/sessions" -o "$tmp/crash-list.json"
    grep -q '"crash"' "$tmp/crash-list.json" \
        || { echo "FAIL: recovered session missing from the listing" >&2; kill "$serve_pid"; exit 1; }
    run ./target/release/ibox ingest append "$tmp/train.json" --url "$base" --session crash --chunks 4
    run ./target/release/ibox ingest finalize --url "$base" --session crash
    run ./target/release/ibox call --post "$base/shutdown" > /dev/null
    wait "$serve_pid" \
        || { echo "FAIL: serve exited nonzero after graceful shutdown" >&2; exit 1; }
    echo "crash smoke passed"

    echo "==> paper smoke: every experiment row at --quick"
    run ./target/release/paper --quick > "$tmp/paper.txt"
    grep -q '^## Table 1' "$tmp/paper.txt" \
        || { echo "FAIL: paper --quick printed no Table 1" >&2; exit 1; }
    echo "paper smoke passed"

    echo "==> perf smoke: every perf row at --quick"
    run ./target/release/perf --quick > "$tmp/perf.txt"
    grep -q '^## §4.2 per-packet inference' "$tmp/perf.txt" \
        || { echo "FAIL: perf --quick printed no §4.2 table" >&2; exit 1; }
    grep -q '^## packet engine, 80 Mbps wired path' "$tmp/perf.txt" \
        || { echo "FAIL: perf --quick printed no cc table" >&2; exit 1; }
    grep -q '^## model artifact, iBoxML \[128,128\]' "$tmp/perf.txt" \
        || { echo "FAIL: perf --quick printed no registry table" >&2; exit 1; }
    echo "perf smoke passed"
fi

if (( perf )); then
    # Named rows are checked against ./BENCH_<bin>.json and write nothing.
    echo "==> perf gate: every row at full scale vs committed BENCH_perf.json"
    run ./target/release/perf train encode infer trace flow path cc ingest registry speed \
        > /dev/null
    echo "perf gate passed"
    echo "==> paper gate: every row at gate scale vs committed BENCH_paper.json"
    run ./target/release/paper fig2 fig3 fig4 fig5 fig7 fig8 table1 \
        ablations profiles protocols extensions > /dev/null
    echo "paper gate passed"
fi

# The size trend — LOC, pub items, gate count — and the panic budget,
# which may only shrink.
run scripts/loc.sh --check

echo "all checks passed"
