package dist

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

// splitCase is a randomized Split input: a world size plus per-member
// colors and keys. Generate keeps it well-formed (valid sizes, non-negative
// colors, per-color-distinct keys) so the property under test is the
// partition itself, not argument validation (TestSplitNamedErrors covers
// that).
type splitCase struct {
	n      int
	colors []int
	keys   []int
}

// Generate implements quick.Generator.
func (splitCase) Generate(r *rand.Rand, _ int) reflect.Value {
	n := 2 + r.Intn(11) // 2..12 ranks
	sc := splitCase{n: n, colors: make([]int, n), keys: make([]int, n)}
	perm := r.Perm(n) // globally distinct keys → distinct within every color
	for i := 0; i < n; i++ {
		sc.colors[i] = r.Intn(4)
		sc.keys[i] = perm[i]
	}
	return reflect.ValueOf(sc)
}

// TestSplitPartitionProperty is the satellite's testing/quick property:
// for arbitrary well-formed (colors, keys), Split partitions the members
// exactly by color, numbers each group densely 0..size-1 in ascending key
// order, and mints a fresh distinct context per group.
func TestSplitPartitionProperty(t *testing.T) {
	prop := func(sc splitCase) bool {
		w := NewWorld(Config{Ranks: sc.n})
		defer w.Shutdown()
		subs, err := w.Comm().Split(sc.colors, sc.keys)
		if err != nil {
			t.Logf("Split(%v, %v): %v", sc.colors, sc.keys, err)
			return false
		}
		seenCtx := map[uint64]int{} // ctx -> color
		for color := 0; color < 4; color++ {
			// The members the partition property demands for this color,
			// in ascending key order.
			var want []int
			for i := 0; i < sc.n; i++ {
				if sc.colors[i] == color {
					want = append(want, i)
				}
			}
			sort.Slice(want, func(a, b int) bool { return sc.keys[want[a]] < sc.keys[want[b]] })
			if len(want) == 0 {
				continue
			}
			g := subs[want[0]]
			if prev, ok := seenCtx[g.ctx]; ok && prev != color {
				t.Logf("colors %d and %d share context %d", prev, color, g.ctx)
				return false
			}
			seenCtx[g.ctx] = color
			if g.ctx == 0 {
				t.Log("sub-communicator reused the world context")
				return false
			}
			if g.Size() != len(want) {
				t.Logf("color %d size = %d, want %d", color, g.Size(), len(want))
				return false
			}
			got := worldRanks(g)
			for j, pi := range want {
				if subs[pi] != g {
					t.Logf("member %d of color %d not in its color's comm", pi, color)
					return false
				}
				if got[j] != pi {
					t.Logf("color %d comm rank %d is world %d, want %d (key order %v)", color, j, got[j], pi, sc.keys)
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 40}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}
