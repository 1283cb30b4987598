package experiments

import (
	"context"
	"fmt"
	"runtime"

	"appfit/internal/bench/workload"
	"appfit/internal/sweep"
)

// Params are the knobs the figures read. cmd/experiments' flags set them;
// the golden tables under testdata/figures are rendered at DefaultParams.
type Params struct {
	Scale workload.Scale
	// Bench is the benchmark the single-benchmark ablations run.
	Bench string
	// Workers is Figure 3's real-runtime worker count.
	Workers int
	// Repeats is how often the real-runtime experiments repeat a run.
	Repeats int
	// builders is how many goroutines build a figure's jobs: the width of
	// the engine the figure runs on.
	builders int
}

// DefaultParams are cmd/experiments' defaults.
func DefaultParams() Params {
	return Params{Scale: workload.Small, Bench: "cholesky", Workers: 4, Repeats: 3}
}

// Figure is one table of the evaluation as a value: what the paper reports
// and how to regenerate it. A figure that simulates lists its requests;
// Run submits every figure's requests as one sweep batch and hands each
// figure its own responses, in request order, to reduce into the table.
type Figure struct {
	// Name is the cmd/experiments subcommand; Title heads the printed table.
	Name, Title string
	// Ref is where the paper reports the result ("" for an extension), and
	// Paper is what it reports, printed under the table.
	Ref, Paper string
	// Golden marks a table that is a pure function of Params (virtual time
	// and seeded searches, no wall clock, no thread timing):
	// testdata/figures/<Name>.txt holds it at DefaultParams.
	Golden bool

	requests func(Params) ([]sweep.Request, error)
	reduce   func(Params, []sweep.Response) (string, error)
	// detail, if set, adds run-time facts to the heading.
	detail func(Params) string
}

// Registry lists every figure, in the order `cmd/experiments all` prints
// them.
var Registry = []Figure{
	{Name: "table1", Title: "Table I", Ref: "Table I", Golden: true,
		reduce: func(p Params, _ []sweep.Response) (string, error) { return Table1(p.Scale), nil }},
	{Name: "fig1", Title: "Figure 1: dataflow vs fork-join", Ref: "Figure 1", Golden: true,
		requests: fig1Requests, reduce: tableOf(fig1)},
	{Name: "fig2", Title: "Figure 2: replication design walk-through", Ref: "Figure 2", Golden: true,
		reduce: func(Params, []sweep.Response) (string, error) { return Fig2(), nil }},
	{Name: "fig3", Title: "Figure 3: App_FIT selective replication", Ref: "Figure 3, §V-A1",
		Paper: "avg 53% tasks / 60% time at 10x; 30% tasks / 36% time at 5x",
		reduce: func(p Params, _ []sweep.Response) (string, error) {
			return dropRows(Fig3(p.Scale, p.Workers, p.Repeats))
		}},
	{Name: "fig4", Title: "Figure 4: complete replication overheads", Ref: "Figure 4, §V-A2", Golden: true,
		Paper:    "2.5% average overhead for complete replication",
		requests: fig4Requests, reduce: tableOf(fig4)},
	{Name: "fig4rt", Title: "Figure 4 cross-check: complete replication on the real runtime vs simulated",
		detail: func(p Params) string {
			return fmt.Sprintf(" (%d workers on %d CPUs, %d repeats)", runtime.GOMAXPROCS(0), runtime.NumCPU(), p.Repeats)
		},
		reduce: func(p Params, _ []sweep.Response) (string, error) {
			return dropRows(Fig4RT(p.Scale, runtime.GOMAXPROCS(0), p.Repeats))
		}},
	{Name: "fig5", Title: "Figure 5: shared-memory scalability", Ref: "Figure 5, §V-A2", Golden: true,
		Paper:    "near-linear scaling for all but stream (each rate has its own 1-core baseline)",
		requests: fig5.requests, reduce: tableOf(fig5.reduce)},
	{Name: "fig6", Title: "Figure 6: distributed scalability", Ref: "Figure 6, §V-A2", Golden: true,
		Paper:    "task replication is highly scalable for distributed applications",
		requests: fig6.requests, reduce: tableOf(fig6.reduce)},
	{Name: "ablation", Title: "Ablation: selection policies", Golden: true,
		reduce: func(p Params, _ []sweep.Response) (string, error) { return dropRows(Ablation(p.Bench, p.Scale)) }},
	{Name: "sweep", Title: "Threshold sensitivity sweep", Golden: true,
		reduce: func(p Params, _ []sweep.Response) (string, error) { return ThresholdSweep(p.Bench, p.Scale) }},
	{Name: "sparecores", Title: "Overhead vs spare capacity", Golden: true,
		requests: spareRequests, reduce: tableOf(spareCores)},
	{Name: "reliability", Title: "Reliability under accelerated fault injection",
		reduce: func(p Params, _ []sweep.Response) (string, error) {
			return dropRows(Reliability(p.Bench, p.Scale, p.Repeats*5, 0))
		}},
	{Name: "topology", Title: "Topology: flat vs hierarchical collectives (64 ranks, 16/node)", Golden: true,
		reduce: func(Params, []sweep.Response) (string, error) { return dropRows(TopologyTable(64, 16, 4096)) }},
	{Name: "kernels", Title: "Distributed kernels: tree vs Rabenseifner, cholesky flat vs hier (64 ranks, 16/node)", Golden: true,
		reduce: func(Params, []sweep.Response) (string, error) { return KernelsTable(64, 16, 32768, 1) }},
}

// Lookup returns the registry entry called name.
func Lookup(name string) (Figure, bool) {
	for _, f := range Registry {
		if f.Name == name {
			return f, true
		}
	}
	return Figure{}, false
}

// Run regenerates figs under p and calls emit with each one's printed form
// (heading, table, the paper's numbers), in order. Every figure's
// simulations go to eng as one batch, so a run pays the batch's tail once
// however many figures it prints; the first failed simulation fails the
// run with its figure and request named.
func Run(eng *sweep.Engine, p Params, figs []Figure, emit func(f Figure, out string)) error {
	p.builders = eng.Workers()
	resps, err := simulate(eng, p, figs)
	if err != nil {
		return err
	}
	for i, f := range figs {
		table, err := f.reduce(p, resps[i])
		if err != nil {
			return err
		}
		heading := f.Title
		if f.detail != nil {
			heading += f.detail(p)
		}
		emit(f, fmt.Sprintf("=== %s ===\n%s\n", heading, f.text(table)))
	}
	return nil
}

// simulate builds every figure's requests, runs them through eng as one
// batch and returns each figure's slice of the responses.
func simulate(eng *sweep.Engine, p Params, figs []Figure) ([][]sweep.Response, error) {
	var reqs []sweep.Request
	ends := make([]int, len(figs))
	for i, f := range figs {
		if f.requests != nil {
			rs, err := f.requests(p)
			if err != nil {
				return nil, err
			}
			reqs = append(reqs, rs...)
		}
		ends[i] = len(reqs)
	}
	resps, _ := eng.RunBatch(context.Background(), reqs) // failures are named per figure below
	out := make([][]sweep.Response, len(figs))
	start := 0
	for i, f := range figs {
		out[i] = resps[start:ends[i]]
		start = ends[i]
		for _, r := range out[i] {
			if r.Err != nil {
				return nil, fmt.Errorf("experiments: %s: %w", f.Name, r.Err)
			}
		}
	}
	return out, nil
}

// text is the table as printed: followed by the paper's numbers, if any.
func (f Figure) text(table string) string {
	if f.Paper == "" {
		return table
	}
	return table + "\npaper: " + f.Paper + "\n"
}

// dropRows drops an experiment's rows, keeping its table.
func dropRows[R any](_ []R, table string, err error) (string, error) { return table, err }

// tableOf adapts a typed reduce to the registry's, dropping the rows.
func tableOf[R any](reduce func(Params, []sweep.Response) ([]R, string)) func(Params, []sweep.Response) (string, error) {
	return func(p Params, resps []sweep.Response) (string, error) {
		_, s := reduce(p, resps)
		return s, nil
	}
}

// regenerate runs the registry figure called name on its own through eng
// and reduces it with the typed reduce: the FigN entry points, which return
// rows as well as the printed table.
func regenerate[R any](eng *sweep.Engine, name string, p Params, reduce func(Params, []sweep.Response) ([]R, string)) ([]R, string, error) {
	f, _ := Lookup(name)
	p.builders = eng.Workers()
	resps, err := simulate(eng, p, []Figure{f})
	if err != nil {
		return nil, "", err
	}
	rows, table := reduce(p, resps[0])
	return rows, f.text(table), nil
}
