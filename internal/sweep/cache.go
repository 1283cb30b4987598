package sweep

import (
	"container/list"

	"appfit/internal/cluster"
)

// lru is a bounded least-recently-used map from request key to completed
// result. It is not goroutine-safe; the Engine serializes access under its
// own mutex. Values are treated as immutable by contract: a hit returns
// the stored value, and Engine re-clones anything a caller could mutate.
type lru struct {
	cap   int
	order *list.List // front = most recently used; Value is *lruEntry
	byKey map[[32]byte]*list.Element
}

type lruEntry struct {
	key [32]byte
	val cluster.Result
}

func newLRU(capacity int) *lru {
	return &lru{cap: capacity, order: list.New(), byKey: make(map[[32]byte]*list.Element)}
}

// get returns the cached value and marks it most recently used.
func (c *lru) get(key [32]byte) (cluster.Result, bool) {
	e, ok := c.byKey[key]
	if !ok {
		return cluster.Result{}, false
	}
	c.order.MoveToFront(e)
	return e.Value.(*lruEntry).val, true
}

// put inserts or refreshes key and returns how many entries were evicted
// to stay within capacity (0 or 1).
func (c *lru) put(key [32]byte, val cluster.Result) int {
	if e, ok := c.byKey[key]; ok {
		e.Value.(*lruEntry).val = val
		c.order.MoveToFront(e)
		return 0
	}
	c.byKey[key] = c.order.PushFront(&lruEntry{key: key, val: val})
	evicted := 0
	for c.order.Len() > c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.byKey, oldest.Value.(*lruEntry).key)
		evicted++
	}
	return evicted
}

// len reports the number of cached entries.
func (c *lru) len() int { return c.order.Len() }
