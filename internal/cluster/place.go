// Placement optimization of a Job: the static capture path of the
// internal/place pipeline. JobProfile derives the rank-pair traffic matrix
// a job's dependency edges will put on the fabric — by walking the very
// layout segments the simulator delivers (one per producer task per
// consumer node, max payload; see layout) — and Config.AutoPlace lets Run
// search the node→machine assignment against that profile before
// simulating.
package cluster

import (
	"fmt"

	"appfit/internal/place"
)

// JobProfile derives the placement profile of job on a nodes-node machine:
// for every producer task, one delivery per consumer node carrying the
// largest payload among the edges it serves — the node-local data cache
// the simulator models (a block travels to each consuming node once, not
// per consuming task). Same-node edges are free and not profiled. The
// profile is static: it prices the fault-free dependency traffic, which is
// also what the simulator's network sees on a clean run.
func JobProfile(job Job, nodes int) (*place.Profile, error) {
	l, err := NewLayout(job, nodes)
	if err != nil {
		return nil, err
	}
	return l.profile(), nil
}

// profile records every segment of the layout — each producer's one
// delivery per consumer node — as rank-pair traffic.
func (l *Layout) profile() *place.Profile {
	p := place.NewProfile(len(l.perNode))
	for i := range l.job.Tasks {
		for lo, end := l.remote[i], l.start[i+1]; lo < end; {
			hi, bytes := l.segment(lo, end)
			p.Add(l.job.Tasks[i].Node, int(l.edges[lo].node), bytes)
			lo = hi
		}
	}
	return p
}

// autoPlace resolves cfg.AutoPlace: it takes the traffic profile of the
// layout, optimizes the node→machine assignment starting from
// cfg.Topo (which may be nil — then AutoPlace.PerNode must be set), and
// returns the config with the optimized topology installed.
func autoPlace(l *Layout, cfg Config) (Config, place.Result, error) {
	res, err := place.Optimize(l.profile(), cfg.Topo, *cfg.AutoPlace)
	if err != nil {
		return cfg, place.Result{}, fmt.Errorf("cluster: auto-place %q: %w", l.job.Name, err)
	}
	cfg.Topo = res.Topo
	return cfg, res, nil
}
