// Package bench is the Table-I benchmark registry: the five shared-memory
// and four distributed task-parallel workloads the paper evaluates, one
// workload.Workload value each. Experiments iterate over All() or the
// SharedMemory()/DistributedSet() subsets.
package bench

import (
	"errors"
	"fmt"
	"slices"

	"appfit/internal/bench/cholesky"
	"appfit/internal/bench/fft"
	"appfit/internal/bench/linpack"
	"appfit/internal/bench/matmul"
	"appfit/internal/bench/nbody"
	"appfit/internal/bench/perlin"
	"appfit/internal/bench/pingpong"
	"appfit/internal/bench/sparselu"
	"appfit/internal/bench/stream"
	"appfit/internal/bench/workload"
)

// all is Table I in order: shared-memory first, then distributed.
var all = [...]workload.Workload{
	sparselu.Workload,
	cholesky.Workload,
	fft.Workload,
	perlin.Workload,
	stream.Workload,
	nbody.Workload,
	matmul.Workload,
	pingpong.Workload,
	linpack.Workload,
}

// All returns every benchmark in Table I order: shared-memory first, then
// distributed.
func All() []workload.Workload { return slices.Clone(all[:]) }

// SharedMemory returns the five shared-memory benchmarks.
func SharedMemory() []workload.Workload {
	var out []workload.Workload
	for _, w := range all {
		if !w.Distributed() {
			out = append(out, w)
		}
	}
	return out
}

// DistributedSet returns the four distributed benchmarks.
func DistributedSet() []workload.Workload {
	var out []workload.Workload
	for _, w := range all {
		if w.Distributed() {
			out = append(out, w)
		}
	}
	return out
}

// ErrUnknownBench is the sentinel wrapped by ByName for names that match
// no benchmark, so drivers can distinguish a typo from a failed run.
var ErrUnknownBench = errors.New("bench: unknown benchmark")

// ByName returns the named benchmark or an error listing valid names.
func ByName(name string) (workload.Workload, error) {
	for _, w := range all {
		if w.Name() == name {
			return w, nil
		}
	}
	names := make([]string, 0, len(all))
	for _, w := range all {
		names = append(names, w.Name())
	}
	return workload.Workload{}, fmt.Errorf("bench: unknown benchmark %q (have %v): %w", name, names, ErrUnknownBench)
}
