#!/bin/sh
# Smoke cases behind the `check` dune alias (see bin/check.sh and the
# bin/dune `smokes` rule).  Every case runs even when an earlier one
# fails; failures are collected and reported in one summary line, and
# the script exits nonzero if any case failed.
#
#   usage: smoke.sh path/to/potx.exe path/to/bench_main.exe \
#            [serve_script.jsonl serve_golden.txt]
#
# The optional pair names the canonical serve request script and its
# golden response capture (test/serve_script_c17.jsonl and
# test/golden/serve_script_c17.txt); without them the serve cases are
# skipped.

POTX=${1:?usage: smoke.sh POTX BENCH_MAIN [SERVE_SCRIPT SERVE_GOLDEN]}
BENCH=${2:?usage: smoke.sh POTX BENCH_MAIN [SERVE_SCRIPT SERVE_GOLDEN]}
SERVE_SCRIPT=${3:-}
SERVE_GOLDEN=${4:-}

# Under dune, %{exe:...} can expand to a bare file name; qualify it so
# the shell executes it by path instead of searching $PATH.
case $POTX in */*) ;; *) POTX="./$POTX" ;; esac
case $BENCH in */*) ;; *) BENCH="./$BENCH" ;; esac

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
failed=""
cases=0

run_case() {
  name=$1
  shift
  cases=$((cases + 1))
  echo "== $name =="
  if "$@"; then
    echo "-- $name: ok"
  else
    echo "-- $name: FAILED"
    failed="$failed $name"
  fi
}

# Reference stdout every byte-compare below is held to.
case_baseline() {
  "$POTX" run --bench c17 > "$work/base.out" 2> /dev/null &&
    test -s "$work/base.out"
}

# 2-domain run of the smallest bench workload: catches multicore
# regressions (hangs, non-determinism) that unit tests can miss.
case_multicore_bench() {
  "$BENCH" --quick --domains=2 t3 > /dev/null
}

# A traced run's capture passes the obs-check schema, and the same
# dump without one of its required metrics fails it (exit 1).
case_obs() {
  "$POTX" run --bench c17 --trace "$work/trace.jsonl" \
    --metrics "$work/metrics.jsonl" > /dev/null 2>&1 &&
    "$POTX" obs-check --trace "$work/trace.jsonl" \
      --metrics "$work/metrics.jsonl" &&
    grep -v '"name":"litho.cache.hits"' "$work/metrics.jsonl" \
      > "$work/metrics_missing.jsonl" &&
    { "$POTX" obs-check --metrics "$work/metrics_missing.jsonl" \
        > /dev/null 2>&1; test $? -eq 1; }
}

# Cached and uncached runs byte-identical, model OPC simulated its sim
# tiles, and the cache actually hit where it has repeats to serve: the
# SSTA process window re-measures each window at several doses of one
# defocus (model OPC's sim tiles bypass the cache).
case_cache() {
  "$POTX" run --bench c17 --metrics "$work/cache_metrics.jsonl" \
    > "$work/cached.out" 2> /dev/null &&
    "$POTX" run --bench c17 --no-cache > "$work/uncached.out" 2> /dev/null &&
    cmp "$work/base.out" "$work/cached.out" &&
    cmp "$work/base.out" "$work/uncached.out" &&
    "$POTX" obs-check --metrics "$work/cache_metrics.jsonl" \
      --require-nonzero opc.dirty_tiles &&
    "$POTX" run --bench c17 --ssta --metrics "$work/cache_ssta_metrics.jsonl" \
      > /dev/null 2>&1 &&
    "$POTX" obs-check --metrics "$work/cache_ssta_metrics.jsonl" \
      --require-nonzero litho.cache.hits
}

case_checkpoint_resume() {
  "$POTX" run --bench c17 --checkpoint "$work/ckpt" \
    > "$work/ckpt1.out" 2> /dev/null &&
    "$POTX" run --bench c17 --checkpoint "$work/ckpt" --resume \
      --metrics "$work/ckpt_metrics.jsonl" > "$work/ckpt2.out" 2> /dev/null &&
    cmp "$work/ckpt1.out" "$work/ckpt2.out" &&
    cmp "$work/base.out" "$work/ckpt2.out" &&
    "$POTX" obs-check --metrics "$work/ckpt_metrics.jsonl" \
      --require-nonzero flow.checkpoint.loaded
}

# The determinism acceptance: plain and --selective stdout
# byte-identical to the sequential run at 1, 2 and 4 worker domains.
# The header line prints the domain count, so the comparison starts
# below it.
case_domains_identity() {
  ok=0
  for sel in "" --selective; do
    for d in 1 2 4; do
      out="$work/domains${sel}_$d.out"
      "$POTX" run --bench c17 $sel --domains "$d" > "$out" 2> /dev/null || ok=1
      tail -n +2 "$out" > "$out.body"
      if [ "$d" = 1 ]; then
        ref="$out.body"
      else
        cmp "$ref" "$out.body" || {
          echo "   run $sel --domains $d differs from --domains 1"
          ok=1
        }
      fi
    done
  done
  tail -n +2 "$work/base.out" | cmp - "$work/domains_1.out.body" || ok=1
  return $ok
}

# The resident timing service: pipe the canonical request script into
# a warm `potx serve` session, hold the response stream to the golden
# capture at 1 and 4 worker domains (the byte-determinism contract),
# and check the session actually counted its requests (obs-check also
# holds every counted verb to its serve.latency.<verb> histogram).
case_serve() {
  "$POTX" serve --bench c17 --metrics "$work/serve_metrics.jsonl" \
    < "$SERVE_SCRIPT" > "$work/serve.out" 2> /dev/null &&
    cmp "$SERVE_GOLDEN" "$work/serve.out" &&
    "$POTX" serve --bench c17 --domains 4 < "$SERVE_SCRIPT" \
      > "$work/serve_d4.out" 2> /dev/null &&
    cmp "$SERVE_GOLDEN" "$work/serve_d4.out" &&
    "$POTX" obs-check --metrics "$work/serve_metrics.jsonl" \
      --require-nonzero serve.requests
}

# Serve with profiling or tracing on: response bytes still match the
# golden capture at 1 and 4 domains, the profile was written, the trace
# passes obs-check, and every serve.corner span carries the request's
# response id and ok attributes.
case_serve_profile() {
  "$POTX" serve --bench c17 --profile "$work/serve_prof1.json" \
    < "$SERVE_SCRIPT" > "$work/serve_prof1.out" 2> /dev/null &&
    cmp "$SERVE_GOLDEN" "$work/serve_prof1.out" &&
    "$POTX" serve --bench c17 --domains 4 --profile "$work/serve_prof4.json" \
      < "$SERVE_SCRIPT" > "$work/serve_prof4.out" 2> /dev/null &&
    cmp "$SERVE_GOLDEN" "$work/serve_prof4.out" &&
    grep -q '"traceEvents"' "$work/serve_prof1.json" &&
    "$POTX" serve --bench c17 --trace "$work/serve_trace.jsonl" \
      < "$SERVE_SCRIPT" > "$work/serve_trace.out" 2> /dev/null &&
    cmp "$SERVE_GOLDEN" "$work/serve_trace.out" &&
    "$POTX" obs-check --trace "$work/serve_trace.jsonl" &&
    grep '"name":"serve\.corner"' "$work/serve_trace.jsonl" \
      > "$work/serve_corner_spans" &&
    n=$(wc -l < "$work/serve_corner_spans") &&
    test "$n" -gt 0 &&
    test "$(grep -cE '"attrs":\{"id":"[0-9]+","ok":"(true|false)"\}' \
      "$work/serve_corner_spans")" -eq "$n"
}

# Profiling must not perturb the primary stdout: --profile runs at 1
# and 4 worker domains byte-compare against the uninstrumented
# baseline (the header prints the domain count, so the 4-domain
# comparison starts below it), and the export is a Chrome-trace JSON
# holding the flow's span tree.
case_profile_identity() {
  "$POTX" run --bench c17 --profile "$work/prof1.json" \
    > "$work/prof1.out" 2> /dev/null &&
    cmp "$work/base.out" "$work/prof1.out" &&
    "$POTX" run --bench c17 --domains 4 --profile "$work/prof4.json" \
      > "$work/prof4.out" 2> /dev/null &&
    tail -n +2 "$work/base.out" > "$work/base.body" &&
    tail -n +2 "$work/prof4.out" | cmp "$work/base.body" - &&
    grep -q '"traceEvents"' "$work/prof1.json" &&
    grep -q 'flow.run' "$work/prof1.json" &&
    grep -q '"traceEvents"' "$work/prof4.json"
}

# Statistical timing is purely additive: a --ssta run prints the
# baseline report byte-for-byte and then the SSTA section below it,
# and the default (non---ssta) stdout is untouched by the feature.
# The section itself is closed-form, so it must also be byte-stable
# across worker-domain counts.  The optics depend on defocus squared,
# so a run at the mirrored defocus prints the same report.
case_ssta() {
  "$POTX" run --bench c17 --ssta > "$work/ssta.out" 2> /dev/null &&
    "$POTX" run --bench c17 > "$work/ssta_base.out" 2> /dev/null &&
    cmp "$work/base.out" "$work/ssta_base.out" &&
    n=$(wc -l < "$work/base.out") &&
    head -n "$n" "$work/ssta.out" | cmp "$work/base.out" - &&
    grep -q '^-- statistical timing (SSTA) --' "$work/ssta.out" &&
    grep -q '^ssta    :' "$work/ssta.out" &&
    "$POTX" run --bench c17 --ssta --domains 4 \
      > "$work/ssta_d4.out" 2> /dev/null &&
    tail -n +2 "$work/ssta.out" > "$work/ssta.body" &&
    tail -n +2 "$work/ssta_d4.out" | cmp "$work/ssta.body" - &&
    "$POTX" run --bench c17 --ssta --defocus=-70 \
      > "$work/ssta_m70.out" 2> /dev/null &&
    tail -n +2 "$work/ssta_m70.out" | cmp "$work/ssta.body" -
}

# The session spawns its worker pool for the first request that runs
# flow work on it: a plain report never starts the `serve` pool, and
# the --ssta section does.
case_session_pool() {
  "$POTX" run --bench c17 --domains 2 --metrics "$work/pool_plain.jsonl" \
    > /dev/null 2>&1 &&
    ! grep -q '"exec\.pool\.serve\.' "$work/pool_plain.jsonl" &&
    "$POTX" run --bench c17 --ssta --domains 4 \
      --metrics "$work/pool_ssta.jsonl" > /dev/null 2>&1 &&
    grep -q '"exec\.pool\.serve\.' "$work/pool_ssta.jsonl"
}

# `potx ARGS` must fail as a usage error: cmdliner's command-line
# error exit (124), never its internal-error exit (125), with no
# "internal error" on stderr.  Sets ok=1 otherwise.
expect_usage_error() {
  "$POTX" "$@" > /dev/null 2> "$work/bad_input.err"
  rc=$?
  if [ "$rc" -ne 124 ] || grep -q "internal error" "$work/bad_input.err"; then
    echo "   potx $*: exit $rc"
    sed 's/^/   | /' "$work/bad_input.err"
    ok=1
  fi
}

# Bad flag values, unknown options and commands, and missing input
# files are usage errors, never uncaught exceptions.  A --spread at or beyond
# the drawn gate length is a bad value: it would leave the corner views
# a non-positive channel; so is a dose that is not positive, a dose or
# defocus that is not finite, a defocus beyond the 200 nm the optical
# model is built for, and more --domains than the runtime's 128 (refused
# before any domain starts).  serve has no --socket transport and no
# slow-query log.  There is one aerial engine, so --engine is an
# unknown option, and there is no cdcmp command.
case_bad_input() {
  ok=0
  expect_usage_error run --engine fft
  expect_usage_error serve --engine direct < /dev/null
  expect_usage_error run --opc bogus
  expect_usage_error run --bench nosuch
  expect_usage_error run --spread 200
  expect_usage_error run --dose 0
  expect_usage_error run --dose=-1
  expect_usage_error run --dose inf
  expect_usage_error run --defocus nan
  expect_usage_error run --defocus 5000
  expect_usage_error run --domains 129
  expect_usage_error serve --socket "$work/potx.sock" < /dev/null
  expect_usage_error serve --slowlog 5 < /dev/null
  expect_usage_error serve --slowlog-file "$work/slow.jsonl" < /dev/null
  expect_usage_error serve --domains 129 < /dev/null
  expect_usage_error export --bench nosuch -o "$work/layout.txt"
  expect_usage_error cdcmp a.csv b.csv
  expect_usage_error obs-report --metrics /nonexistent
  return $ok
}

run_case baseline case_baseline
run_case multicore-bench case_multicore_bench
run_case obs case_obs
run_case cache case_cache
run_case checkpoint-resume case_checkpoint_resume
run_case domains-identity case_domains_identity
run_case ssta case_ssta
run_case profile-identity case_profile_identity
run_case bad-input case_bad_input
run_case session-pool case_session_pool
if [ -n "$SERVE_SCRIPT" ] && [ -n "$SERVE_GOLDEN" ]; then
  run_case serve case_serve
  run_case serve-profile case_serve_profile
else
  echo "== serve == (skipped: pass SERVE_SCRIPT and SERVE_GOLDEN to enable)"
fi

if [ -n "$failed" ]; then
  echo "smoke.sh: FAILED:$failed"
  exit 1
fi
echo "smoke.sh: OK ($cases/$cases cases)"
