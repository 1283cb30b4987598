package dist

import (
	"encoding/binary"
	"errors"
	"math"
	"sort"
	"testing"

	"appfit/internal/buffer"
)

// ints decodes raw as a sequence of varints: the fuzzers' way to reach any
// int, math.MaxInt included, from a short input.
func ints(raw []byte) []int {
	var out []int
	for len(raw) > 0 {
		v, k := binary.Varint(raw)
		if k <= 0 {
			break
		}
		out = append(out, int(v))
		raw = raw[k:]
	}
	return out
}

// varints is ints' inverse, for seeds.
func varints(vs ...int) []byte {
	var out []byte
	for _, v := range vs {
		out = binary.AppendVarint(out, int64(v))
	}
	return out
}

// rejected reports whether w recorded an argument error, failing t unless
// that error is a vector- or collective-argument error and nothing was
// submitted for it.
func rejected(t *testing.T, w *World, op string) bool {
	t.Helper()
	err := worldErr(w)
	if err == nil {
		return false
	}
	if !errors.Is(err, ErrVectorArgs) && !errors.Is(err, ErrCollectiveArgs) {
		t.Fatalf("%s: error %v wraps neither ErrVectorArgs nor ErrCollectiveArgs", op, err)
	}
	if st := w.Stats(); st.Submitted != 0 {
		t.Fatalf("%s: rejected call submitted %d tasks", op, st.Submitted)
	}
	return true
}

// FuzzVectorArgs: over arbitrary member counts (≤ 8), vector lengths,
// counts and displacements, Allgatherv never panics. Each call either
// records an ErrVectorArgs- or ErrCollectiveArgs-wrapped error and submits
// no task, or its World shuts down clean with every member holding the
// serial reference. layout is counts then displacements, as varints; a
// short layout gives short slices. ragged shortens one vector.
func FuzzVectorArgs(f *testing.F) {
	f.Add(uint8(2), uint8(4), false, varints(1, 1, 0, math.MaxInt)) // displacement overflow
	f.Add(uint8(2), uint8(4), false, varints(math.MaxInt, 1, 0, 1)) // count overflow
	f.Add(uint8(3), uint8(4), false, varints(2, 1, 2, 0, 2, 3))     // outside the vector
	f.Add(uint8(3), uint8(4), false, varints(2, 2, 1, 0, 1, 3))     // overlap
	f.Add(uint8(3), uint8(4), false, varints(-1, 2, 2, 0, 0, 2))    // negative count
	f.Add(uint8(3), uint8(4), true, varints(1, 1, 1, 0, 1, 2))      // ragged vectors
	f.Add(uint8(2), uint8(4), false, varints(2, 2, 0))              // short displacements
	f.Add(uint8(4), uint8(10), false, varints(3, 0, 2, 5, 0, 3, 3, 5))
	f.Add(uint8(1), uint8(0), false, varints(0, 0))
	f.Fuzz(func(t *testing.T, members, vlen uint8, ragged bool, layout []byte) {
		n := max(1, int(members%9))
		vals := ints(layout)
		counts := vals[:min(n, len(vals))]
		displs := vals[len(counts):min(2*n, len(vals))]

		// Allgatherv: member i starts from 1000i+k at element k.
		w := NewWorld(Config{Ranks: n})
		bufs := make([]buffer.F64, n)
		for i := range bufs {
			bufs[i] = buffer.NewF64(int(vlen))
			for k := range bufs[i] {
				bufs[i][k] = float64(1000*i + k)
			}
		}
		if ragged && vlen > 0 {
			bufs[n-1] = bufs[n-1][:vlen-1]
		}
		w.Comm().Allgatherv(0, "v", bufs, counts, displs)
		if !rejected(t, w, "Allgatherv") {
			if err := w.Shutdown(); err != nil {
				t.Fatalf("Allgatherv(%v, %v): %v", counts, displs, err)
			}
			for i := range bufs {
				want := make([]float64, len(bufs[i]))
				for k := range want {
					want[k] = float64(1000*i + k)
				}
				for j := range counts {
					for k := displs[j]; k < displs[j]+counts[j]; k++ {
						want[k] = float64(1000*j + k)
					}
				}
				if !bufs[i].EqualTo(buffer.F64(want)) {
					t.Fatalf("Allgatherv(%v, %v) member %d = %v, want %v", counts, displs, i, bufs[i], want)
				}
			}
		}
		_ = w.Shutdown()
	})
}

// splitReference is Split's specification: each color's members in
// ascending key order, colors ascending, or the named error.
func splitReference(n int, colors, keys []int) (groups [][]int, byColor map[int]int, err error) {
	if len(colors) != n || len(keys) != n {
		return nil, nil, ErrSplitSize
	}
	byColor = map[int]int{} // color -> index into groups
	var order []int
	for _, c := range colors {
		if c < 0 {
			return nil, nil, ErrSplitColor
		}
		if _, ok := byColor[c]; !ok {
			byColor[c] = 0
			order = append(order, c)
		}
	}
	sort.Ints(order)
	groups = make([][]int, len(order))
	for g, c := range order {
		byColor[c] = g
		for i := range colors {
			if colors[i] == c {
				groups[g] = append(groups[g], i)
			}
		}
		grp := groups[g]
		sort.SliceStable(grp, func(a, b int) bool { return keys[grp[a]] < keys[grp[b]] })
		for j := 1; j < len(grp); j++ {
			if keys[grp[j]] == keys[grp[j-1]] {
				return nil, nil, ErrSplitKey
			}
		}
	}
	return groups, byColor, nil
}

// FuzzSplit: arbitrary colors and keys either give the named ErrSplit*
// error the reference gives and mint no context, or exactly the reference
// partition — each color's members in key order, one fresh context per
// color in ascending color order. raw is colors then keys, one signed byte
// each (colors in -4..3, keys in -8..7, so negatives and duplicates are
// common); a short raw gives short slices.
func FuzzSplit(f *testing.F) {
	f.Add(uint8(4), []byte{0, 0, 32, 32, 0, 16, 32, 48})
	f.Add(uint8(4), []byte{0, 0xe0, 0, 0, 0, 16, 32, 48}) // negative color
	f.Add(uint8(4), []byte{0, 0, 32, 32, 32, 32, 0, 16})  // duplicate key
	f.Add(uint8(4), []byte{0, 0, 32, 32, 0, 16, 32, 32})  // duplicate key in the second color
	f.Add(uint8(3), []byte{0, 0, 0, 0})                   // short keys
	f.Add(uint8(7), []byte{96, 64, 32, 0, 96, 64, 32, 112, 96, 80, 64, 48, 32, 16})
	f.Fuzz(func(t *testing.T, members uint8, raw []byte) {
		n := max(1, int(members%9))
		var colors, keys []int
		for i, b := range raw[:min(2*n, len(raw))] {
			if i < n {
				colors = append(colors, int(int8(b))>>5)
			} else {
				keys = append(keys, int(int8(b))>>4)
			}
		}
		w := NewWorld(Config{Ranks: n})
		defer w.Shutdown()
		ctx0 := w.nextCtx.Load()
		subs, err := w.Comm().Split(colors, keys)
		groups, byColor, want := splitReference(n, colors, keys)
		if err != nil || want != nil {
			if !errors.Is(err, want) || want == nil {
				t.Fatalf("Split(%v, %v) = %v, want %v", colors, keys, err, want)
			}
			if subs != nil || w.nextCtx.Load() != ctx0 {
				t.Fatalf("Split(%v, %v) failed but minted contexts or communicators", colors, keys)
			}
			return
		}
		for i, sub := range subs {
			g := byColor[colors[i]]
			if sub != subs[groups[g][0]] || sub.ctx != ctx0+1+uint64(g) {
				t.Fatalf("Split(%v, %v): member %d in comm ctx %d, want group %d's (ctx %d)",
					colors, keys, i, sub.ctx, g, ctx0+1+uint64(g))
			}
			got := worldRanks(sub)
			if len(got) != len(groups[g]) {
				t.Fatalf("Split(%v, %v): group %d = %v, want %v", colors, keys, g, got, groups[g])
			}
			for j := range got {
				if got[j] != groups[g][j] {
					t.Fatalf("Split(%v, %v): group %d = %v, want %v", colors, keys, g, got, groups[g])
				}
			}
		}
	})
}
