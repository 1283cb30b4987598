package sweep

import (
	"testing"

	"appfit/internal/cluster"
	"appfit/internal/fault"
	"appfit/internal/simtime"
)

// FuzzSweepKeyCanonical drives RunKey with jobs decoded from raw fuzz
// bytes and checks the key doc's canonicality promises hold for arbitrary
// structures, not just the hand-picked cases in key_test.go:
//
//  1. stability — the same request keys identically on repeated calls,
//     and identically again when it comes from a Prepared job;
//  2. spelling collapse — OutBytes 0 vs explicit ArgBytes, nil DepBytes
//     vs all-zero DepBytes, permuted dependency-edge order, and nil vs
//     all-false vs trailing-false Replicated all digest identically;
//  3. sensitivity — flipping one byte of semantic content (a task's cost)
//     changes the key, so collapse is not the degenerate constant digest.
func FuzzSweepKeyCanonical(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{0xff, 0x00, 0x7f, 0x80, 0x01, 0x40, 0xaa, 0x55, 0x10, 0x20})
	f.Fuzz(func(t *testing.T, data []byte) {
		job, cfg := decodeRequest(data)
		key, ok := RunKey(job, cfg)
		if !ok {
			t.Fatalf("RunKey uncacheable for a FixedRate injector")
		}
		if again, _ := RunKey(job, cfg); again != key {
			t.Fatalf("RunKey unstable: %x then %x", key, again)
		}
		if prepared, _ := Prepare(job).Request(cfg).key(); prepared != key {
			t.Fatalf("prepared request keyed %x, RunKey %x", prepared, key)
		}

		// Respell OutBytes explicitly, DepBytes as explicit zeros, and
		// reverse every dependency-edge list (carrying DepBytes along so
		// edges keep their payloads).
		respelled := cloneJob(job)
		for i := range respelled.Tasks {
			tk := &respelled.Tasks[i]
			if tk.OutBytes == 0 {
				tk.OutBytes = tk.ArgBytes
			}
			if tk.DepBytes == nil {
				tk.DepBytes = make([]int64, len(tk.Deps))
			}
			for a, b := 0, len(tk.Deps)-1; a < b; a, b = a+1, b-1 {
				tk.Deps[a], tk.Deps[b] = tk.Deps[b], tk.Deps[a]
				tk.DepBytes[a], tk.DepBytes[b] = tk.DepBytes[b], tk.DepBytes[a]
			}
		}
		if k2, _ := RunKey(respelled, cfg); k2 != key {
			t.Fatalf("respelled job changed the key: %x vs %x", k2, key)
		}

		// Respell Replicated: appending trailing falses must not matter,
		// and an all-false vector must key like nil.
		cfg2 := cfg
		cfg2.Replicated = append(append([]bool{}, cfg.Replicated...), false, false)
		if k2, _ := RunKey(job, cfg2); k2 != key {
			t.Fatalf("trailing-false Replicated changed the key")
		}
		allFalse := true
		for _, r := range cfg.Replicated {
			allFalse = allFalse && !r
		}
		if allFalse {
			cfg2.Replicated = nil
			if k2, _ := RunKey(job, cfg2); k2 != key {
				t.Fatalf("nil vs all-false Replicated changed the key")
			}
		}

		// Sensitivity: a real semantic change must move the digest.
		if len(job.Tasks) > 0 {
			changed := cloneJob(job)
			changed.Tasks[0].Cost += simtime.Time(1)
			if k2, _ := RunKey(changed, cfg); k2 == key {
				t.Fatalf("changing a task cost did not change the key")
			}
		}
	})
}

// decodeRequest builds an arbitrary-but-valid (job, cfg) pair from fuzz
// bytes: a byte stream is the task list (label class, node, cost, arg
// bytes, dependency fan-in onto earlier tasks), with the tail bytes
// seeding the injector and replication vector.
func decodeRequest(data []byte) (cluster.Job, cluster.Config) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	n := int(next()) % 9 // up to 8 tasks keeps each fuzz exec cheap
	tasks := make([]cluster.Task, 0, n)
	for i := 0; i < n; i++ {
		t := cluster.Task{
			Label:    string(rune('a' + next()%4)),
			Node:     int(next() % 4),
			Cost:     simtime.Time(next()) * 1000, // up to 255 µs of virtual work
			ArgBytes: int64(next()) << (next() % 8),
		}
		if next()%2 == 0 {
			t.OutBytes = int64(next())
		}
		if i > 0 {
			deps := int(next()) % (i + 1)
			for d := 0; d < deps; d++ {
				t.Deps = append(t.Deps, int(next())%i)
			}
			if len(t.Deps) > 0 && next()%2 == 0 {
				t.DepBytes = make([]int64, len(t.Deps))
				for d := range t.DepBytes {
					t.DepBytes[d] = int64(next())
				}
			}
		}
		tasks = append(tasks, t)
	}
	job := cluster.Job{Name: "fuzz", Tasks: tasks}
	cfg := cluster.Config{
		Nodes:        1 + int(next()%4),
		CoresPerNode: 1 + int(next()%4),
		Injector:     fault.NewFixedRate(uint64(next()), float64(next())/512, float64(next())/512),
	}
	if rep := int(next()) % (len(tasks) + 1); rep > 0 {
		cfg.Replicated = make([]bool, rep)
		for i := range cfg.Replicated {
			cfg.Replicated[i] = next()%2 == 0
		}
	}
	return job, cfg
}

// cloneJob deep-copies a job so a respelling cannot alias the original's
// backing arrays.
func cloneJob(j cluster.Job) cluster.Job {
	out := j
	out.Tasks = make([]cluster.Task, len(j.Tasks))
	copy(out.Tasks, j.Tasks)
	for i := range out.Tasks {
		t := &out.Tasks[i]
		t.Deps = append([]int(nil), t.Deps...)
		if t.DepBytes != nil {
			t.DepBytes = append([]int64(nil), t.DepBytes...)
		}
	}
	return out
}
