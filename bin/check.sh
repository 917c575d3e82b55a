#!/bin/sh
# Tier-1 gate for this repo (documented in README): full build, the
# test suite — including the golden stdout byte-compares in test/ —
# and the 12 smoke cases in bin/smoke.sh (baseline, multicore bench,
# obs + obs-check, cache, checkpoint/resume, domains identity, ssta,
# profile identity, bad input, session pool, serve, serve profile).
# bin/smoke.sh is the single source of truth for the smoke cases:
# this wrapper only builds and hands it the artifacts (the
# bin/dune `smokes` alias runs the same script under dune, so `dune
# build @check` composes the same three pieces).  Performance is not
# gated here: the benchmark is perfbench/ (BENCHMARK.json).
set -eu
cd "$(dirname "$0")/.."

echo "== dune build =="
dune build

echo "== dune runtest =="
dune runtest

echo "== smokes (bin/smoke.sh) =="
sh bin/smoke.sh _build/default/bin/potx.exe _build/default/bench/main.exe \
  test/serve_script_c17.jsonl test/golden/serve_script_c17.txt
