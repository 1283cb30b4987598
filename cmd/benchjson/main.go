// Command benchjson converts `go test -bench` output on stdin into a JSON
// baseline file, so `make bench` can record the repo's perf trajectory
// (BENCH_scale.json) in a diffable, machine-readable form. Input lines are
// echoed to stdout unchanged, so the human-readable run stays visible.
//
//	go test -run='^$' -bench=. -benchmem ./internal/bench/scale | \
//	    go run ./cmd/benchjson -suite scale -out BENCH_scale.json
//
// With -compare it instead diffs two baseline files and exits non-zero
// when any gated metric of a benchmark present in both regressed beyond
// its unit's threshold — the CI guard `make bench-compare` runs against
// the committed baseline:
//
//	go run ./cmd/benchjson -compare BENCH_scale.json BENCH_scale.new.json
//
// Gated units and their thresholds come from -gates, default
// "ns/op=25,vus/op=1,p99/op=25,+req/s=25,allocs/op=10,B/op=15": wall time absorbs
// scheduler noise with a wide margin, while vus/op — the Sim transport's
// virtual link-occupancy makespan, the headline metric of the topology
// work — is deterministic for a fixed algorithm, so even a small
// regression there is a real routing change, not noise. allocs/op
// repeats to within a few percent on a fixed code path, so 10% is a real
// change too (a cache hit that starts touching its task list again shows
// here first). B/op is as deterministic where buffers are pooled or sized
// once and a little looser where a GC-timed cache or a growing slice sits
// on the path, hence 15%: what it catches is a copy that went back to
// being allocated (the replication engine leases its buffers; one make per
// task there is +98 KB/op on a 32 KB argument, not a few percent).
// p99/op is the appfit service's tail latency in ns, gated
// like ns/op. A unit prefixed with "+" is higher-is-better (req/s, the
// service's sustained throughput): there a regression is the value
// *dropping* beyond the
// threshold, not rising. Units not listed (custom counters) are
// recorded but never gate. Units named by -info (default
// "hit%", the sweep engine's cache hit rate) are additionally printed in
// the comparison so their drift stays visible, but they never gate
// either — a hit rate is a property of the request mix, not a cost.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Benchmark is one parsed result line.
type Benchmark struct {
	// Name is the benchmark's full name including sub-benchmark path and
	// the -N GOMAXPROCS suffix go test appends, e.g.
	// "DirectHerd/sharded/parked=255-8".
	Name       string `json:"name"`
	Iterations int64  `json:"iterations"`
	// Metrics maps unit → value for every "value unit" pair on the line:
	// ns/op, B/op, allocs/op and any custom b.ReportMetric units.
	Metrics map[string]float64 `json:"metrics"`
}

// Baseline is the file layout of BENCH_scale.json. Goos/Goarch/Pkg/CPU echo
// the environment lines go test prints before the results.
type Baseline struct {
	Suite      string      `json:"suite"`
	Goos       string      `json:"goos,omitempty"`
	Goarch     string      `json:"goarch,omitempty"`
	Pkg        string      `json:"pkg,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// defaultGates is what `make bench-compare` gates on (see the package
// comment for why each threshold is what it is).
const defaultGates = "ns/op=25,vus/op=1,p99/op=25,+req/s=25,allocs/op=10,B/op=15"

func main() {
	suite := flag.String("suite", "scale", "suite name recorded in the JSON")
	out := flag.String("out", "", "output file (default stdout only)")
	compare := flag.Bool("compare", false, "compare two baseline files (old new) instead of parsing stdin")
	gatesFlag := flag.String("gates", defaultGates, "with -compare: gated units and their regression thresholds in percent, as unit=pct[,unit=pct...]; a + prefix marks the unit higher-is-better")
	infoFlag := flag.String("info", "hit%", "with -compare: comma-separated units printed for information but never gated")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchjson: -compare needs exactly two files: old.json new.json")
			os.Exit(2)
		}
		gates, err := parseGates(*gatesFlag)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(2)
		}
		os.Exit(compareBaselines(os.Stdout, flag.Arg(0), flag.Arg(1), gates, parseInfo(*infoFlag)))
	}

	base := Baseline{Suite: *suite}
	failed := false
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		fmt.Println(line)
		switch {
		case strings.HasPrefix(line, "goos: "):
			base.Goos = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			base.Goarch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "pkg: "):
			base.Pkg = strings.TrimPrefix(line, "pkg: ")
		case strings.HasPrefix(line, "cpu: "):
			base.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "Benchmark"):
			if b, ok := parseLine(line); ok {
				base.Benchmarks = append(base.Benchmarks, b)
			}
		case strings.HasPrefix(line, "FAIL") || strings.HasPrefix(line, "--- FAIL"):
			failed = true
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: read stdin: %v\n", err)
		os.Exit(1)
	}
	if failed {
		fmt.Fprintln(os.Stderr, "benchjson: benchmark run FAILed; not writing baseline")
		os.Exit(1)
	}
	if len(base.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines seen on stdin")
		os.Exit(1)
	}
	enc, err := json.MarshalIndent(base, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %d results to %s\n", len(base.Benchmarks), *out)
}

// gate is one unit's regression policy: the threshold in percent and the
// direction that counts as worse (costs per op regress upward, a "+unit"
// throughput regresses downward).
type gate struct {
	pct          float64
	higherBetter bool
}

// parseGates parses a "unit=pct[,unit=pct...]" spec into the gated-unit
// threshold table; a "+" prefix on the unit marks it higher-is-better.
func parseGates(spec string) (map[string]gate, error) {
	gates := make(map[string]gate)
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		g := gate{}
		if strings.HasPrefix(part, "+") {
			g.higherBetter = true
			part = part[1:]
		}
		eq := strings.LastIndex(part, "=")
		if eq <= 0 || eq == len(part)-1 {
			return nil, fmt.Errorf("malformed -gates entry %q (want unit=pct)", part)
		}
		pct, err := strconv.ParseFloat(part[eq+1:], 64)
		if err != nil || pct < 0 {
			return nil, fmt.Errorf("malformed -gates threshold in %q", part)
		}
		g.pct = pct
		gates[part[:eq]] = g
	}
	if len(gates) == 0 {
		return nil, fmt.Errorf("-gates %q names no units", spec)
	}
	return gates, nil
}

// parseInfo parses the -info unit list; an empty spec disables info lines.
func parseInfo(spec string) map[string]bool {
	info := make(map[string]bool)
	for _, part := range strings.Split(spec, ",") {
		if part = strings.TrimSpace(part); part != "" {
			info[part] = true
		}
	}
	return info
}

// compareBaselines diffs new against old and returns the exit code: 0 when
// every gated metric of every benchmark present in both stayed within its
// unit's threshold, 1 when any regressed beyond it — upward for cost
// units, downward for higher-is-better ones. Benchmarks or units that
// appear on only one side are reported but not failed — suites grow and
// rotate; only a measured regression of a still-recorded metric should
// gate. Units in info are printed alongside when both sides record them,
// purely for the reader; they never affect the exit code.
func compareBaselines(out io.Writer, oldPath, newPath string, gates map[string]gate, info map[string]bool) int {
	load := func(path string) (map[string]map[string]float64, bool) {
		raw, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			return nil, false
		}
		var b Baseline
		if err := json.Unmarshal(raw, &b); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %s: %v\n", path, err)
			return nil, false
		}
		m := make(map[string]map[string]float64, len(b.Benchmarks))
		for _, bm := range b.Benchmarks {
			m[bm.Name] = bm.Metrics
		}
		return m, true
	}
	oldB, ok := load(oldPath)
	if !ok {
		return 2
	}
	newB, ok := load(newPath)
	if !ok {
		return 2
	}
	units := make([]string, 0, len(gates))
	for u := range gates {
		units = append(units, u)
	}
	sort.Strings(units)
	names := make([]string, 0, len(oldB))
	for name := range oldB {
		names = append(names, name)
	}
	sort.Strings(names)
	regressed, compared := 0, 0
	for _, name := range names {
		om := oldB[name]
		nm, ok := newB[name]
		if !ok {
			fmt.Fprintf(out, "MISSING  %-60s (in %s only)\n", name, oldPath)
			continue
		}
		for _, unit := range units {
			ov, okO := om[unit]
			nv, okN := nm[unit]
			if !okO || !okN {
				// A gated unit recorded on only one side cannot gate, but
				// it must not vanish silently either: a benchmark that
				// stops reporting vus/op is exactly how a guarded metric
				// would lose its guard unnoticed.
				if okO != okN {
					side := newPath
					if okO {
						side = oldPath
					}
					fmt.Fprintf(out, "MISSING  %-60s %s (in %s only)\n", name, unit, side)
				}
				continue
			}
			compared++
			g := gates[unit]
			pct := 0.0
			if ov > 0 {
				pct = (nv - ov) / ov * 100
			}
			bad := ov > 0 && pct > g.pct
			limit := ""
			if g.higherBetter {
				// Throughput: the regression direction inverts — gate on
				// the value dropping beyond the threshold.
				bad = ov > 0 && pct < -g.pct
				limit = fmt.Sprintf("%+.1f%% < -%.0f%%", pct, g.pct)
			} else {
				limit = fmt.Sprintf("%+.1f%% > %.0f%%", pct, g.pct)
			}
			if bad {
				regressed++
				fmt.Fprintf(out, "REGRESS  %-60s %12.1f -> %12.1f %s (%s)\n",
					name, ov, nv, unit, limit)
			} else {
				fmt.Fprintf(out, "ok       %-60s %12.1f -> %12.1f %s (%+.1f%%)\n", name, ov, nv, unit, pct)
			}
		}
		infoUnits := make([]string, 0, len(info))
		for u := range info {
			infoUnits = append(infoUnits, u)
		}
		sort.Strings(infoUnits)
		for _, unit := range infoUnits {
			ov, okO := om[unit]
			nv, okN := nm[unit]
			if okO && okN {
				fmt.Fprintf(out, "info     %-60s %12.1f -> %12.1f %s (not gated)\n", name, ov, nv, unit)
			}
		}
	}
	added := make([]string, 0, len(newB))
	for name := range newB {
		if _, ok := oldB[name]; !ok {
			added = append(added, name)
		}
	}
	sort.Strings(added)
	for _, name := range added {
		fmt.Fprintf(out, "NEW      %-60s\n", name)
	}
	if regressed > 0 {
		fmt.Fprintf(os.Stderr, "benchjson: %d metric(s) regressed beyond their unit thresholds\n", regressed)
		return 1
	}
	fmt.Fprintf(out, "benchjson: no regression across %d gated metric(s) of %d benchmark(s)\n", compared, len(names))
	return 0
}

// parseLine parses one `BenchmarkName-N  iters  v1 u1  v2 u2 ...` line.
func parseLine(line string) (Benchmark, bool) {
	f := strings.Fields(line)
	if len(f) < 4 || len(f)%2 != 0 {
		return Benchmark{}, false
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{
		Name:       strings.TrimPrefix(f[0], "Benchmark"),
		Iterations: iters,
		Metrics:    make(map[string]float64, (len(f)-2)/2),
	}
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		b.Metrics[f[i+1]] = v
	}
	return b, true
}
