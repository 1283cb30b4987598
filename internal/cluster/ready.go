package cluster

import "appfit/internal/simtime"

// readyHeap is a node's queue of runnable executions: a 4-ary min-heap
// keyed by one word, task index << 32 | attempt, so one unsigned compare
// orders (task, attempt) pairs — Job.Validate bounds the task index to
// int32, and attempts already ride int32 event payloads. A key is unique
// (a task has one execution per attempt), so the pop order is fully
// determined. Entries are 16-byte values in one slice, and a wide node
// keeps a sift's comparisons inside one or two cache lines (LaMarca and
// Ladner, "The Influence of Caches on the Performance of Heaps", JEA 1996).
type readyHeap []readyEnt

type readyEnt struct {
	key  uint64
	cost simtime.Time
}

// grow makes room for n more entries without further allocation.
func (h *readyHeap) grow(n int) {
	if s := *h; cap(s)-len(s) < n {
		*h = append(make(readyHeap, 0, len(s)+n), s...)
	}
}

// push queues attempt of task, which costs cost core time.
func (h *readyHeap) push(task, attempt int, cost simtime.Time) {
	x := readyEnt{uint64(task)<<32 | uint64(attempt), cost}
	s := append(*h, x)
	*h = s
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 4
		if x.key >= s[p].key {
			break
		}
		s[i] = s[p]
		i = p
	}
	s[i] = x
}

// pop removes the execution with the smallest key; h must be non-empty.
func (h *readyHeap) pop() (task, attempt int, cost simtime.Time) {
	s := *h
	top := s[0]
	n := len(s) - 1
	x := s[n]
	s = s[:n]
	*h = s
	i := 0
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		for j, end := c+1, min(c+4, n); j < end; j++ {
			if s[j].key < s[m].key {
				m = j
			}
		}
		if s[m].key >= x.key {
			break
		}
		s[i] = s[m]
		i = m
	}
	if n > 0 {
		s[i] = x
	}
	return int(top.key >> 32), int(uint32(top.key)), top.cost
}
