#!/bin/sh
# bench_pair.sh — interleaved pairs of the end-to-end benchmark: a committed
# git ref (side A, the parent) against the working tree (side B, the
# change), on one workload and one seed.
#
#	sh scripts/bench_pair.sh [-gate] REF WORKLOAD PAIRS SEED [SECONDS]
#	make benchmark-pair REF=HEAD W=figures N=10 SEED=23 [S=15] [GATE=1]
#
# REF is exported with git archive into .bench_build/pair/<sha>/ — plain
# files, no worktree metadata — and each side's benchmark and appfitd
# binaries are built once, before anything is timed. Pair i runs A then B
# when i is odd and B then A when it is even, so host drift during the
# measurement falls on both sides alike. Every run is its own process, exactly
# as BENCHMARK.json's command runs it (untraced, SECONDS long, default 15).
#
# It prints each pair, then per end-to-end metric (BENCHMARK.json's
# end_to_end, with its better direction): both sides' medians, the
# parent's quartiles q1/q3, the median B/A ratio with its quartiles, how
# many pairs B won and the one-sided sign-test p of that many wins. A run
# with failed operations is reported and counts as a loss for its side.
#
# -gate first makes one traced run per side at the same seed and compares
# the exact counters below; if any differs it names each, with both values,
# and exits 1 before the pairs. A change that claims to keep every result
# must leave them all where the parent has them. The gate also prints both
# sides' go.allocs_per_op and go.alloc_kb_per_op with their B/A ratio, and
# fails when B exceeds A by more than 5 %.
set -eu
# The counters benchmark/README.md marks "=" (they repeat exactly for a
# seed), and rt.dep_edges, which counts every edge the accesses declare.
exact="cluster.runs cluster.reexecutions cluster.sdc_detected cluster.due_recovered
cluster.messages cluster.virtual_ms_sum simnet.bytes_sent simnet.wire_bytes
rt.tasks rt.replicated rt.sdc_detected rt.due_recovered rt.reexecutions
rt.vote_failures rt.dep_edges ckpt.saves ckpt.restores ckpt.bytes_saved
dist.messages dist.tasks dist.virtual_us dist.halo_virtual_us
dist.allreduce_small_virtual_us dist.allreduce_large_virtual_us
dist.allgatherv_virtual_us dist.cholesky_virtual_us"
gate=0
if [ "${1:-}" = -gate ]; then
	gate=1
	shift
fi
if [ $# -lt 4 ] || [ "$3" -lt 2 ]; then
	echo "usage: $0 [-gate] REF WORKLOAD PAIRS SEED [SECONDS] (PAIRS >= 2)" >&2
	exit 2
fi
ref=$1 workload=$2 pairs=$3 seed=$4 seconds=${5:-15}
cd "$(dirname "$0")/.."
root=$PWD
sha=$(git rev-parse --verify "$ref^{commit}")
pairdir="$root/.bench_build/pair"
parent="$pairdir/$sha"
export GOCACHE="$root/.bench_build/gocache" GOMODCACHE="$root/.bench_build/gomodcache"

if [ ! -f "$parent/go.mod" ]; then
	rm -rf "$parent"
	mkdir -p "$parent"
	git archive "$sha" | tar -x -C "$parent"
fi
# Each side's benchmark builds appfitd into its own .bench_build/bin when
# a service workload starts; building it here leaves that an up-to-date
# check on both sides.
for side in "$parent" "$root"; do
	(cd "$side" && go build -o .bench_build/bin/benchmark ./benchmark && go build -o .bench_build/bin/appfitd ./cmd/appfitd)
done

data="$pairdir/$workload-$seed.tsv"
: >"$data"
# run SIDE-NAME DIR PAIR [TRACE [FILE]]: one benchmark process; appends
# "pair side metric value" lines to FILE (default $data). The parent's
# export sits inside this repository, so git is fenced off there and its
# env line names no commit.
run() {
	out=$(cd "$2" && GIT_CEILING_DIRECTORIES="$pairdir" .bench_build/bin/benchmark \
		-workload "$workload" -seed "$seed" -seconds "$seconds" -trace "${4:-0}" 2>"$pairdir/stderr") || {
		cat "$pairdir/stderr" >&2
		exit 1
	}
	printf '%s\n' "$out" | tail -n 1 | awk -v pair="$3" -v side="$1" '{
		if (match($0, /"failed":[0-9]+/)) print pair, side, "failed", substr($0, RSTART + 9, RLENGTH - 9)
		s = $0
		while (match(s, /"[a-z0-9_.]+":\{"value":[-+0-9.eE]+/)) {
			m = substr(s, RSTART, RLENGTH)
			s = substr(s, RSTART + RLENGTH)
			split(m, part, "\"")
			v = m
			sub(/.*"value":/, "", v)
			print pair, side, part[2], v
		}
	}' >>"${5:-$data}"
}

if [ "$gate" = 1 ]; then
	traced="$pairdir/$workload-$seed.gate.tsv"
	: >"$traced"
	run A "$parent" 0 1 "$traced"
	run B "$root" 0 1 "$traced"
	awk -v exact="$exact" '{ v[$2, $3] = $4 }
	END {
		n = split(exact, name)
		for (i = 1; i <= n; i++) {
			a = ("A", name[i]) in v ? v["A", name[i]] : "absent"
			b = ("B", name[i]) in v ? v["B", name[i]] : "absent"
			if (a != b) {
				printf "gate: %s drifted: A %s, B %s\n", name[i], a, b
				bad++
			}
		}
		if (!bad) printf "gate: all %d exact counters equal (traced runs, seed %s)\n", n, seed
		n = split("go.allocs_per_op go.alloc_kb_per_op", name)
		for (i = 1; i <= n; i++) {
			if (!(("A", name[i]) in v) || !(("B", name[i]) in v)) {
				printf "gate: %s absent: A %s, B %s\n", name[i], v["A", name[i]], v["B", name[i]]
				bad++
				continue
			}
			a = v["A", name[i]]; b = v["B", name[i]]
			r = a > 0 ? b / a : 1
			printf "gate: %s A %s, B %s, B/A %.3f\n", name[i], a, b, r
			if (b > 1.05 * a) {
				printf "gate: %s grew more than 5 %%\n", name[i]
				bad++
			}
		}
		if (bad) exit 1
	}' seed="$seed" "$traced" || {
		echo "gate: failed; no pairs run" >&2
		exit 1
	}
fi

echo "$workload, seed $seed, $pairs pairs of $seconds s: A = $ref ($(echo "$sha" | cut -c1-7)), B = working tree"
i=1
while [ "$i" -le "$pairs" ]; do
	if [ $((i % 2)) -eq 1 ]; then
		run A "$parent" "$i"
		run B "$root" "$i"
		order=AB
	else
		run B "$root" "$i"
		run A "$parent" "$i"
		order=BA
	fi
	awk -v pair="$i" -v order="$order" '$1 == pair {
		v[$2, $3] = $4
		if ($2 == "A" && $3 != "failed") names[++k] = $3
	}
	END {
		line = sprintf("pair %2d %s", pair, order)
		for (j = 1; j <= k; j++) if (v["A", names[j]] != 0)
			line = line sprintf("  %s %.4g/%.4g=%.3f", names[j], v["B", names[j]], v["A", names[j]], v["B", names[j]] / v["A", names[j]])
		print line "  failed " v["A", "failed"] "/" v["B", "failed"]
	}' "$data"
	i=$((i + 1))
done

awk '
function sort(x, n,    i, j, t) {
	for (i = 2; i <= n; i++) {
		t = x[i]
		for (j = i - 1; j >= 1 && x[j] > t; j--) x[j + 1] = x[j]
		x[j + 1] = t
	}
}
# q(x, n, k): the k-th quartile cut, the "exclusive" method of Python
# statistics.quantiles(n=4), as benchmark/metrics.go computes it.
function q(x, n, k,    j, d) {
	j = int(k * (n + 1) / 4)
	if (j < 1) j = 1
	if (j > n - 1) j = n - 1
	d = k * (n + 1) - j * 4
	return (x[j] * (4 - d) + x[j + 1] * d) / 4
}
FNR == NR {
	if (/"end_to_end"/) e2e = 1
	if (/"per_layer"/) e2e = 0
	if (e2e && match($0, /"name": *"[a-z0-9_]+"/)) {
		name = substr($0, RSTART, RLENGTH); sub(/.*: *"/, "", name); sub(/"$/, "", name)
		better[name] = ($0 ~ /"better": *"higher"/) ? "higher" : "lower"
		order[++metrics] = name
	}
	next
}
{ v[$1, $2, $3] = $4; if ($1 > n) n = $1 }
END {
	printf "\n%-14s %7s %12s %12s %12s %12s %8s %15s %6s %7s\n", "metric", "better", "A median", "A q1", "A q3", "B median", "B/A", "B/A q1..q3", "B won", "sign p"
	for (k = 1; k <= metrics; k++) {
		m = order[k]
		if (!((1, "A", m) in v)) continue
		wins = 0
		for (i = 1; i <= n; i++) {
			a[i] = v[i, "A", m]; b[i] = v[i, "B", m]
			r[i] = a[i] != 0 ? b[i] / a[i] : 0
			won = better[m] == "higher" ? b[i] > a[i] : b[i] < a[i]
			if (v[i, "B", "failed"] > 0) won = 0
			if (v[i, "A", "failed"] > 0 && v[i, "B", "failed"] == 0) won = 1
			wins += won
		}
		sort(a, n); sort(b, n); sort(r, n)
		# P(X >= wins) for X ~ Binomial(n, 1/2)
		p = 0; c = 1
		for (j = 0; j <= n; j++) { if (j >= wins) p += c; c = c * (n - j) / (j + 1) }
		p /= 2 ^ n
		printf "%-14s %7s %12.6g %12.6g %12.6g %12.6g %8.3f %7.3f..%-7.3f %3d/%-2d %7.4f\n", m, better[m],
			q(a, n, 2), q(a, n, 1), q(a, n, 3), q(b, n, 2), q(r, n, 2), q(r, n, 1), q(r, n, 3), wins, n, p
	}
}' BENCHMARK.json "$data"
