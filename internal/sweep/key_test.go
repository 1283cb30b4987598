package sweep

import (
	"math/rand"
	"testing"
	"testing/quick"

	"appfit/internal/cluster"
	"appfit/internal/fault"
	"appfit/internal/simnet"
	"appfit/internal/simtime"
)

// genJobConfig derives a random but valid (job, config) pair from the
// quick-check generator's randomness.
func genJobConfig(r *rand.Rand) (cluster.Job, cluster.Config) {
	nodes := 1 + r.Intn(4)
	nTasks := 1 + r.Intn(12)
	job := cluster.Job{Name: "quick", InputBytes: int64(r.Intn(1 << 20))}
	for i := 0; i < nTasks; i++ {
		t := cluster.Task{
			Label:    []string{"potrf", "trsm", "gemm"}[r.Intn(3)],
			Node:     r.Intn(nodes),
			Cost:     simtime.Time(1 + r.Intn(1000)),
			ArgBytes: int64(1 + r.Intn(1<<16)),
		}
		if r.Intn(2) == 0 {
			t.OutBytes = int64(1 + r.Intn(1<<16))
		}
		for d := 0; d < i && d < 3; d++ {
			if r.Intn(3) == 0 {
				t.Deps = append(t.Deps, r.Intn(i))
			}
		}
		if len(t.Deps) > 0 && r.Intn(2) == 0 {
			t.DepBytes = make([]int64, len(t.Deps))
			for k := range t.DepBytes {
				t.DepBytes[k] = int64(r.Intn(4096))
			}
		}
		job.Tasks = append(job.Tasks, t)
	}
	cfg := cluster.Config{
		Nodes:        nodes,
		CoresPerNode: 1 + r.Intn(16),
		ReplicaCores: r.Intn(4),
		MaxAttempts:  3 + r.Intn(5),
		Injector:     fault.NewFixedRate(r.Uint64(), r.Float64()/100, r.Float64()/100),
	}
	if r.Intn(2) == 0 {
		cfg.Replicated = make([]bool, nTasks)
		for i := range cfg.Replicated {
			cfg.Replicated[i] = r.Intn(2) == 0
		}
	}
	return job, cfg
}

// rebuild deep-copies the pair through fresh allocations (and, where a
// semantically-neutral respelling exists, uses it) so pointer identity and
// construction order can be ruled out as key inputs.
func rebuild(job cluster.Job, cfg cluster.Config) (cluster.Job, cluster.Config) {
	j2 := cluster.Job{Name: job.Name, InputBytes: job.InputBytes}
	for _, t := range job.Tasks {
		t2 := t
		t2.Deps = append([]int(nil), t.Deps...)
		if t.DepBytes != nil {
			t2.DepBytes = append([]int64(nil), t.DepBytes...)
		} else if len(t.Deps) > 0 {
			// nil DepBytes means all-zero payloads: the explicit spelling.
			t2.DepBytes = make([]int64, len(t.Deps))
		}
		// Reverse the edge list: dependencies are a set to the simulator,
		// so edge order is another neutral respelling.
		for i, j := 0, len(t2.Deps)-1; i < j; i, j = i+1, j-1 {
			t2.Deps[i], t2.Deps[j] = t2.Deps[j], t2.Deps[i]
			t2.DepBytes[i], t2.DepBytes[j] = t2.DepBytes[j], t2.DepBytes[i]
		}
		if t.OutBytes == 0 {
			// 0 means "compare ArgBytes": the explicit spelling.
			t2.OutBytes = t.ArgBytes
		}
		j2.Tasks = append(j2.Tasks, t2)
	}
	c2 := cfg
	if cfg.Replicated != nil {
		// Append trailing falses: semantically invisible to the simulator.
		c2.Replicated = append(append([]bool(nil), cfg.Replicated...), false, false)
	}
	return j2, c2
}

// TestRunKeyCanonical: structurally-equal jobs and configs — rebuilt
// through fresh allocations, neutral respellings and different map
// insertion orders — digest identically.
func TestRunKeyCanonical(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		job, cfg := genJobConfig(r)
		k1, ok1 := RunKey(job, cfg)
		job2, cfg2 := rebuild(job, cfg)
		k2, ok2 := RunKey(job2, cfg2)
		return ok1 && ok2 && k1 == k2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestRunKeyScriptOrderIndependent: a scripted injector built in two
// different insertion orders digests identically — map iteration order can
// never change a key.
func TestRunKeyScriptOrderIndependent(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		job, cfg := genJobConfig(r)
		n := 1 + r.Intn(8)
		type ev struct {
			task    uint64
			attempt int
			o       fault.Outcome
			bit     int64
		}
		seen := map[[2]uint64]bool{}
		var evs []ev
		for len(evs) < n {
			e := ev{uint64(r.Intn(16)), r.Intn(3), fault.Outcome(1 + r.Intn(2)), int64(r.Intn(64))}
			if k := [2]uint64{e.task, uint64(e.attempt)}; !seen[k] {
				seen[k] = true
				evs = append(evs, e)
			}
		}
		fwd, rev := fault.NewScript(), fault.NewScript()
		for i := 0; i < n; i++ {
			fwd.Set(evs[i].task, evs[i].attempt, evs[i].o).SetBit(evs[i].task, evs[i].attempt, evs[i].bit)
		}
		for i := n - 1; i >= 0; i-- {
			rev.Set(evs[i].task, evs[i].attempt, evs[i].o).SetBit(evs[i].task, evs[i].attempt, evs[i].bit)
		}
		cfgF, cfgR := cfg, cfg
		cfgF.Injector, cfgR.Injector = fwd, rev
		kF, okF := RunKey(job, cfgF)
		kR, okR := RunKey(job, cfgR)
		return okF && okR && kF == kR
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestRunKeySensitive: every single-field change that can change a
// simulation's outcome changes the digest.
func TestRunKeySensitive(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	job, cfg := genJobConfig(r)
	topo, err := simnet.MarenostrumTopology(cfg.Nodes, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Topo = topo
	base, ok := RunKey(job, cfg)
	if !ok {
		t.Fatal("base must be cacheable")
	}
	mutations := map[string]func() (cluster.Job, cluster.Config){
		"fault seed": func() (cluster.Job, cluster.Config) {
			c := cfg
			c.Injector = fault.NewFixedRate(999, 0.01, 0.01)
			return job, c
		},
		"fault rate": func() (cluster.Job, cluster.Config) {
			c := cfg
			c.Injector = fault.NewFixedRate(42, 0.01, 0.02)
			return job, c
		},
		"one task cost": func() (cluster.Job, cluster.Config) {
			j, _ := rebuild(job, cfg)
			j.Tasks[0].Cost++
			return j, cfg
		},
		"one task arg bytes": func() (cluster.Job, cluster.Config) {
			j, _ := rebuild(job, cfg)
			j.Tasks[0].ArgBytes++
			return j, cfg
		},
		"placement": func() (cluster.Job, cluster.Config) {
			c := cfg
			flat, err := simnet.BlockTopology(cfg.Nodes, 1, simnet.Marenostrum(), simnet.Marenostrum())
			if err != nil {
				t.Fatal(err)
			}
			c.Topo = flat
			return job, c
		},
		"cores per node": func() (cluster.Job, cluster.Config) {
			c := cfg
			c.CoresPerNode++
			return job, c
		},
		"replication set": func() (cluster.Job, cluster.Config) {
			c := cfg
			c.Replicated = cluster.All(len(job.Tasks))
			c.Replicated[0] = false
			return job, c
		},
		"max attempts": func() (cluster.Job, cluster.Config) {
			c := cfg
			c.MaxAttempts = cfg.MaxAttempts + 1
			return job, c
		},
	}
	for name, mutate := range mutations {
		j, c := mutate()
		k, ok := RunKey(j, c)
		if !ok {
			t.Fatalf("%s: mutated request must stay cacheable", name)
		}
		if k == base {
			t.Fatalf("%s: digest did not change", name)
		}
	}
}
