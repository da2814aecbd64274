#!/usr/bin/env bash
# Regenerate / compare the committed perf trajectory (BENCH_micro.json).
#
#   tools/bench.sh record <label>   build release, run the hotloop recorder,
#                                   append a snapshot
#   tools/bench.sh compare [--max-regress <pct>] [--markdown]
#                                   print first-vs-last snapshot speedups;
#                                   with --max-regress, exit 2 if the last
#                                   snapshot regressed more than <pct>% on
#                                   any entry vs the previous one; with
#                                   --markdown, emit the table as GitHub
#                                   markdown (PR descriptions / CI job
#                                   summaries)
#   tools/bench.sh smoke [pct]      quick CI gate: run the quick workloads,
#                                   append them to a scratch copy of the
#                                   committed quick baseline
#                                   (BENCH_smoke.json) and fail if anything
#                                   regressed more than pct% (default 75 —
#                                   generous because CI hardware differs
#                                   from the recording machine; the gate
#                                   exists to catch catastrophic hot-loop
#                                   regressions, not percent-level drift)
#   tools/bench.sh ab <rev> [workload...]
#                                   interleaved A/B of the repository
#                                   benchmark (BENCHMARK.json): <rev> vs the
#                                   working tree, 10 pairs per workload
#                                   (default: every declared workload),
#                                   alternating which side runs first; per
#                                   end-to-end metric prints both medians
#                                   and quartiles and how many pairs the
#                                   working tree won (ties count for
#                                   neither). <rev> is exported with
#                                   `git archive` to
#                                   ${TMPDIR:-/tmp}/rica-bench-ab/<sha> and
#                                   built there once (reused by later runs);
#                                   raw result lines land in a fresh
#                                   directory printed at the start.
#
# The artifacts live at the repo root; snapshots are labeled and append-only,
# so the perf trajectory across PRs stays reviewable in git history.
#
# Workloads covered (see crates/bench/src/bin/hotloop.rs): the paper-grid
# trials per protocol, the 200-node scale trial on both channel tiers
# (trial/scale200/RICA, trial/scale200_approx/RICA), the bursty 200-node
# overload trial through rica-traffic (trial/workload_burst/RICA), and the
# substrate micro-loops including the approx-tier sampling pair
# (micro/ou_sample_repeat_dt[_approx], micro/ziggurat_normal). `smoke`
# runs them all in quick mode in CI.
set -euo pipefail
cd "$(dirname "$0")/.."

case "${1:-}" in
  record)
    label="${2:?usage: tools/bench.sh record <label>}"
    cargo build --release -q
    cargo run --release -q -p rica-bench --bin hotloop -- --label "$label"
    ;;
  compare)
    shift
    cargo run --release -q -p rica-bench --bin hotloop -- --compare "$@"
    ;;
  smoke)
    pct="${2:-75}"
    scratch="$(mktemp /tmp/bench_smoke.XXXXXX.json)"
    trap 'rm -f "$scratch"' EXIT
    cp BENCH_smoke.json "$scratch"
    cargo run --release -q -p rica-bench --bin hotloop -- \
      --quick --label ci-smoke --json "$scratch"
    cargo run --release -q -p rica-bench --bin hotloop -- \
      --compare --json "$scratch" --max-regress "$pct"
    # Surface the per-entry speedup table in the CI job summary, when the
    # runner provides one (the gate above already failed on a regression).
    if [[ -n "${GITHUB_STEP_SUMMARY:-}" ]]; then
      {
        echo "### Bench smoke: quick hot-loop vs committed baseline"
        cargo run --release -q -p rica-bench --bin hotloop -- \
          --compare --json "$scratch" --markdown
      } >> "$GITHUB_STEP_SUMMARY"
    fi
    ;;
  ab)
    rev="${2:?usage: tools/bench.sh ab <rev> [workload...]}"
    shift 2
    pairs=10
    base="$(git rev-parse --verify "$rev^{commit}")"
    # The benchmark's own declaration: its command, run length, workloads
    # and end-to-end metrics (name + better direction).
    mapfile -t cmd < <(awk '/"command"/ { on = 1; next } on && /\]/ { exit }
      on { gsub(/[",[:space:]]/, ""); if ($0 != "") print }' BENCHMARK.json)
    secs="$(sed -n 's/.*"run_seconds": *\([0-9.]*\).*/\1/p' BENCHMARK.json)"
    if [[ $# -eq 0 ]]; then
      mapfile -t workloads < <(awk '/"workloads"/ { on = 1 } on && /"name"/ {
        gsub(/.*"name": *"|".*/, ""); print } on && /^  \]/ { exit }' BENCHMARK.json)
    else
      workloads=("$@")
    fi
    e2e="$(awk '/"end_to_end"/ { on = 1 } on && /"name"/ { gsub(/.*"name": *"|".*/, ""); n = $0 }
      on && /"better"/ { gsub(/.*"better": *"|".*/, ""); print n, $0 } on && /^  \]/ { exit }' BENCHMARK.json)"
    tree="${TMPDIR:-/tmp}/rica-bench-ab/$base"
    if [[ ! -f "$tree/BENCHMARK.json" ]]; then
      rm -rf "$tree" && mkdir -p "$tree"
      git archive "$base" | tar -x -C "$tree"
    fi
    out="$(mktemp -d "${TMPDIR:-/tmp}/rica-bench-ab.XXXXXX")"
    echo "ab: base ${base:0:12} ($tree) vs working tree; results in $out" >&2
    for dir in "$tree" .; do
      (cd "$dir" && cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml)
    done
    run() { # <tree> <workload> <seed> <result file>
      (cd "$1" && "${cmd[@]}" --workload "$2" --seed "$3" --seconds "$secs" --trace 0) \
        | tail -n 1 >"$4"
    }
    for w in "${workloads[@]}"; do
      for ((i = 1; i <= pairs; i++)); do
        echo "ab: $w pair $i/$pairs" >&2
        if ((i % 2)); then
          run "$tree" "$w" "$i" "$out/$w.base.$i"
          run . "$w" "$i" "$out/$w.head.$i"
        else
          run . "$w" "$i" "$out/$w.head.$i"
          run "$tree" "$w" "$i" "$out/$w.base.$i"
        fi
      done
      echo "## $w: ${base:0:12} (base) vs working tree (head), $pairs pairs"
      printf '%-16s %-7s %-38s %-38s %-10s %s\n' metric better \
        "base median [q1, q3]" "head median [q1, q3]" head/base "head wins"
      while read -r metric better; do
        for ((i = 1; i <= pairs; i++)); do
          for side in base head; do
            f="$out/$w.$side.$i"
            grep -q '"correct": true' "$f" || echo "ab: $w $side pair $i: correct != true" >&2
            sed -n "s/.*\"$metric\": {\"value\": \([^,}]*\).*/\1/p" "$f"
          done | paste -sd ' '
        done | awk -v m="$metric" -v better="$better" '
          function quart(a, n, q,   i, j, t, s, h, k) {
            for (i = 1; i <= n; i++) s[i] = a[i]
            for (i = 2; i <= n; i++) { t = s[i]; for (j = i - 1; j >= 1 && s[j] > t; j--) s[j + 1] = s[j]; s[j + 1] = t }
            h = (n - 1) * q + 1; k = int(h)
            return k >= n ? s[n] : s[k] + (h - k) * (s[k + 1] - s[k])
          }
          NF == 2 { n++; b[n] = $1; h[n] = $2
            if (better == "lower" ? $2 < $1 : $2 > $1) wins++ }
          END {
            bm = quart(b, n, 0.5); hm = quart(h, n, 0.5)
            printf "%-16s %-7s %-38s %-38s %-10s %d/%d\n", m, better,
              sprintf("%.4g [%.4g, %.4g]", bm, quart(b, n, 0.25), quart(b, n, 0.75)),
              sprintf("%.4g [%.4g, %.4g]", hm, quart(h, n, 0.25), quart(h, n, 0.75)),
              (bm != 0 ? sprintf("%.3f", hm / bm) : "-"), wins, n
          }'
      done <<<"$e2e"
      echo
    done
    ;;
  *)
    echo "usage: tools/bench.sh {record <label>|compare [--max-regress <pct>]|smoke [pct]|ab <rev> [workload...]}" >&2
    exit 2
    ;;
esac
