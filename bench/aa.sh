#!/bin/sh
# A/A check: takes two result sets of the same code, alternating in time, and
# compares them with the benchmark's own bounds.
#
#	sh bench/aa.sh [runs [seconds [first-seed]]]
#
# Run i of either set uses seed first-seed+i, so both sets see the same
# inputs; within a pair the order of A and B alternates. Results go to
# .bench_build/aa-A.jsonl and .bench_build/aa-B.jsonl (removed first).
set -eu
runs=${1:-10}
seconds=${2:-15}
first=${3:-0}
a=.bench_build/aa-A.jsonl
b=.bench_build/aa-B.jsonl
mkdir -p .bench_build
rm -f "$a" "$b"
i=1
while [ "$i" -le "$runs" ]; do
	for w in sim-cluster2-1m sim-scenario-many live-bcast-chan live-stream-chan; do
		if [ $((i % 2)) -eq 1 ]; then order="$a $b"; else order="$b $a"; fi
		for out in $order; do
			sh bench/run.sh --workload "$w" --seed $((first + i)) --seconds "$seconds" --trace 0 -json -out "$out" >/dev/null
		done
	done
	i=$((i + 1))
done
sh bench/run.sh -compare "$a" "$b"
