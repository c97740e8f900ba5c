#!/bin/sh
# Runs the fig3 matrix (CR, AMG, FB x the 10 Table I configs, scale 0.25,
# seed 42) with telemetry on and prints the sha256 of every config's
# metrics.json, counters.jsonl and heatmap.csv in sha256sum format.
#
# Usage: tests/golden/fig3_artifacts.sh BUILD_DIR
#   check:      tests/golden/fig3_artifacts.sh build | diff -u tests/golden/fig3_artifacts.sha256 -
#   regenerate: tests/golden/fig3_artifacts.sh build > tests/golden/fig3_artifacts.sha256
set -eu
golden=$(cd "$(dirname "$0")" && pwd)
sim=$(cd "$1" && pwd)/examples/dfly_sim
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# Config names repeat across apps, so each app writes under its own directory
# (the telemetry out_dir is relative to the working directory).
for app in cr amg fb; do
  mkdir "$work/$app"
  (cd "$work/$app" &&
   "$sim" --app=$app --all-configs --scale=0.25 --config="$golden/fig3_telemetry.conf" > /dev/null)
done
cd "$work"
find cr amg fb -name metrics.json -o -name counters.jsonl -o -name heatmap.csv |
  LC_ALL=C sort | xargs sha256sum
