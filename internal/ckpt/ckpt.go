// Package ckpt is the checkpoint of the replication design: "at the
// beginning of the task, the task's inputs are checkpointed" (paper §III,
// Figure 2 step 1), and on SDC detection "the task's initial state is
// restored from its checkpoint and is re-executed" (step 4).
//
// The runtime (internal/rt) copies nothing for it. Every attempt of a
// replicated task writes private copies of its writable arguments, and the
// dependence graph lets no other task write the task's arguments before it
// completes, so the real argument buffers stay pristine until the result is
// adopted: they are the checkpoint, and a re-execution's copies are taken
// from them. Stats counts the checkpoints and restores that stand for.
//
// Store is the copying checkpoint the paper's runtime keeps: the paper
// assumes a safe memory region whose own failure rate is negligible
// (§IV-A), modelled here by ordinary heap copies the fault injector never
// touches, with K redundant copies per checkpoint as the paper's "multiple
// checkpoints" hardening option. No program path uses it; it remains the
// measured unit behind the end-to-end benchmark's ckpt.save_ns_per_kb and
// ckpt.restore_ns_per_kb until the benchmark stops pricing it.
package ckpt

import (
	"errors"
	"fmt"
	"sync"

	"appfit/internal/buffer"
)

// checkpoint is one task's saved inputs: copies back-to-back sets of n
// leased buffers each (nil where the input was nil).
type checkpoint struct {
	bufs []buffer.Buffer
	n    int
}

// Store holds input checkpoints keyed by task id. Every saved buffer is a
// lease from the store's pool, held until Release (or until a second Save
// of the same id replaces it), so a Restore must have returned before its
// id is released. It is safe for concurrent use by all workers.
type Store struct {
	pool   *buffer.Pool
	copies int

	mu   sync.Mutex
	chks map[uint64]checkpoint // guarded by mu
	// spare keeps released checkpoints' slices for the next Save. // guarded by mu
	spare [][]buffer.Buffer
}

// NewStore returns a Store keeping copies redundant copies per checkpoint
// (minimum 1), leasing from a pool of its own.
func NewStore(copies int) *Store {
	if copies < 1 {
		copies = 1
	}
	return &Store{pool: buffer.NewPool(), copies: copies, chks: make(map[uint64]checkpoint)}
}

// Save deep-copies the given input buffers as the checkpoint of task id.
// Saving twice for the same id replaces the earlier checkpoint.
func (s *Store) Save(id uint64, inputs []buffer.Buffer) {
	c := checkpoint{bufs: s.slice(s.copies * len(inputs)), n: len(inputs)}
	for k := 0; k < s.copies; k++ {
		for _, b := range inputs {
			c.bufs = append(c.bufs, s.pool.Lease(b))
		}
	}
	s.mu.Lock()
	old, replaced := s.chks[id]
	s.chks[id] = c
	s.mu.Unlock()
	if replaced {
		s.discard(old)
	}
}

// slice returns an empty buffer slice with room for n: the most recently
// released checkpoint's if it fits (one too small is dropped, so spare never
// outgrows the peak number of live checkpoints).
func (s *Store) slice(n int) []buffer.Buffer {
	s.mu.Lock()
	defer s.mu.Unlock()
	if k := len(s.spare) - 1; k >= 0 {
		bufs := s.spare[k]
		s.spare[k] = nil
		s.spare = s.spare[:k]
		if cap(bufs) >= n {
			return bufs
		}
	}
	return make([]buffer.Buffer, 0, n)
}

// discard returns c's leases to the pool and keeps its slice for reuse.
func (s *Store) discard(c checkpoint) {
	s.pool.Return(c.bufs...)
	clear(c.bufs)
	s.mu.Lock()
	s.spare = append(s.spare, c.bufs[:0])
	s.mu.Unlock()
}

// ErrRestore is the sentinel wrapped by every failed Restore — missing
// checkpoint, shape mismatch, buffer copy failure — so a caller can
// errors.Is a restore problem without matching message text.
var ErrRestore = errors.New("ckpt: restore failed")

// Restore copies the checkpoint of task id back into dst (which must have
// the same shape as the saved inputs). With multiple copies, the first copy
// is used; corrupt-copy arbitration is outside our fault model because the
// store is safe memory by assumption.
func (s *Store) Restore(id uint64, dst []buffer.Buffer) error {
	s.mu.Lock()
	c, ok := s.chks[id]
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("ckpt: no checkpoint for task %d: %w", id, ErrRestore)
	}
	src := c.bufs[:c.n]
	if len(src) != len(dst) {
		return fmt.Errorf("ckpt: restore shape mismatch for task %d: %d saved, %d given: %w", id, len(src), len(dst), ErrRestore)
	}
	for i := range src {
		if src[i] == nil {
			if dst[i] != nil {
				return fmt.Errorf("ckpt: restore arg %d: saved nil, dst non-nil: %w", i, ErrRestore)
			}
			continue
		}
		if err := dst[i].CopyFrom(src[i]); err != nil {
			return fmt.Errorf("ckpt: restore arg %d of task %d: %w", i, id, err)
		}
	}
	return nil
}

// Release discards the checkpoint of task id, freeing safe memory. Releasing
// an absent id is a no-op (the task may not have been replicated).
func (s *Store) Release(id uint64) {
	s.mu.Lock()
	c, ok := s.chks[id]
	delete(s.chks, id)
	s.mu.Unlock()
	if ok {
		s.discard(c)
	}
}

// Stats is the checkpoint accounting a Runtime reports: Figure 2's
// checkpoints and restores, counted on the real buffers that serve as them.
type Stats struct {
	// Saves counts checkpoints, one per replicated task; Restores counts
	// restores, one per re-execution.
	Saves, Restores uint64
	// BytesSaved sums the checkpointed inputs: each replicated task's read
	// arguments.
	BytesSaved int64
	// PeakLive is the most checkpoint bytes held in copies at once: 0,
	// since the checkpoint is the real buffers.
	PeakLive int64
}
