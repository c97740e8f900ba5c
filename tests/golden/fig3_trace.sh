#!/bin/sh
# Runs CR rand-adp and FB cont-min (scale 0.25, seed 42) with the flight
# recorder on and prints the sha256 of each run's trace.json in sha256sum
# format. fig3_artifacts.sh leaves trace.json out (chrome_trace = 0); this
# pins the per-hop router, port and VC fields the tracer records.
#
# Usage: tests/golden/fig3_trace.sh BUILD_DIR
#   check:      tests/golden/fig3_trace.sh build | diff -u tests/golden/fig3_trace.sha256 -
#   regenerate: tests/golden/fig3_trace.sh build > tests/golden/fig3_trace.sha256
set -eu
golden=$(cd "$(dirname "$0")" && pwd)
sim=$(cd "$1" && pwd)/examples/dfly_sim
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

run() {  # app placement routing
  mkdir "$work/$1"
  (cd "$work/$1" &&
   "$sim" --app="$1" --placement="$2" --routing="$3" --scale=0.25 \
     --config="$golden/fig3_trace.conf" > /dev/null)
}
run cr rand adp
run fb cont min
cd "$work"
find cr fb -name trace.json | LC_ALL=C sort | xargs sha256sum
