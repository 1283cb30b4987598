// Canonical content-addressed request keys. A key is a SHA-256 digest over
// a byte encoding of everything that determines a deterministic request's
// result — the job's name and structure (task costs, dependencies,
// argument sizes, by value, never by pointer identity), the full
// normalized cluster.Config including placement topology and
// fault-injector state — and nothing else. A nil topology is always the
// Marenostrum flat fabric, so it encodes as no link model at all.
//
// The encoding is canonical by construction:
//
//   - every variable-length section is length-prefixed and tagged, so two
//     different structures can never serialize to the same bytes;
//   - semantically-equal spellings collapse: Config defaults are resolved
//     via Config.Normalized before encoding, a task's OutBytes of 0 encodes
//     as its ArgBytes (what the simulator charges), nil DepBytes encodes as
//     per-edge zeros, a task's dependency edges encode sorted by (dep,
//     bytes) — the simulator treats them as a set — and Replicated encodes
//     as the sorted index set of true entries (nil, all-false and
//     trailing-false spellings digest identically);
//   - nothing is ever encoded by iterating a Go map: fault.Script sorts its
//     programmed entries (fault.Keyer's contract), so map iteration order
//     can never change a key;
//   - the task list — the dominant section by bytes — hashes to its own
//     32-byte digest which is spliced into the request stream, so a
//     Prepared job computes it once and a warm cache probe costs
//     O(config), not O(tasks), per request.
//
// Injectors must implement fault.Keyer to be digestible; a config carrying
// any other injector is uncacheable and reported as such (the engine still
// runs it, every time).
package sweep

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"hash"
	"math"
	"slices"
	"sync"

	"appfit/internal/cluster"
	"appfit/internal/fault"
	"appfit/internal/simnet"
)

// Integers encode as uvarints/varints (a unique minimal byte string per
// value, so canonicality is preserved) rather than fixed 8-byte words: the
// digest input shrinks ~4× on typical jobs, and hashing the encoding is
// the dominant cost of a warm cache hit.
func appendU64(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }
func appendI64(b []byte, v int64) []byte  { return binary.AppendVarint(b, v) }
func appendF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

func appendString(b []byte, s string) []byte {
	b = appendU64(b, uint64(len(s)))
	return append(b, s...)
}

// Prepared is an immutable job whose task-section digest was computed
// once, by Prepare: every Request it hands out derives its key in
// O(config), and simulates on the job's one Layout. Safe for concurrent
// use.
type Prepared struct {
	job    cluster.Job
	digest [sha256.Size]byte
	all    []bool
	// lay is the job's cluster.Layout, built by the first run (for that
	// run's node count) and then shared by every run, each on scratch from
	// the Layout's pool; nil if the job failed validation for that node
	// count.
	layOnce sync.Once
	lay     *cluster.Layout
}

// Prepare hashes job's task list once. The caller gives up write access:
// job.Tasks (and the slices it references) must never be mutated afterwards,
// or requests would keep the digest of the old content.
func Prepare(job cluster.Job) *Prepared {
	return &Prepared{job: job, digest: tasksDigest(job.Tasks), all: cluster.All(len(job.Tasks))}
}

// Job returns the prepared job; its Tasks are shared and read-only.
func (p *Prepared) Job() cluster.Job { return p.job }

// AllReplicated returns the complete-replication Config.Replicated vector,
// one shared read-only slice (the simulator and the key only read it).
func (p *Prepared) AllReplicated() []bool { return p.all }

// Request pairs the job with cfg, carrying the digest along.
func (p *Prepared) Request(cfg cluster.Config) Request {
	return Request{Job: p.job, Config: cfg, prep: p}
}

// RunKey returns the content-addressed cache key of one (job, cfg)
// simulation request, or ok=false when the request is uncacheable (its
// injector does not implement fault.Keyer).
func RunKey(job cluster.Job, cfg cluster.Config) (key [32]byte, ok bool) {
	return Request{Job: job, Config: cfg}.key()
}

// flushAt is the fill at which the encoders hand their buffer to the
// hasher, so an encoding of any length streams through one small buffer.
const flushAt = 512

func flush(h hash.Hash, b []byte) []byte {
	h.Write(b)
	return b[:0]
}

// owns reports whether tasks is still the slice Prepare hashed (same
// backing array and length). A request re-pointed at other tasks — or one
// not from a Prepared, p nil — is keyed and run by value, so neither a
// stale digest nor a stale layout can answer for another job.
func (p *Prepared) owns(tasks []cluster.Task) bool {
	return p != nil && len(tasks) == len(p.job.Tasks) && (len(tasks) == 0 || &tasks[0] == &p.job.Tasks[0])
}

// digestOf returns the task-section digest of tasks: the stored one when p
// owns them, else a hash by value.
func (p *Prepared) digestOf(tasks []cluster.Task) [sha256.Size]byte {
	if p.owns(tasks) {
		return p.digest
	}
	return tasksDigest(tasks)
}

// key derives the request's key: the one encoder, prepared or not.
func (r Request) key() (key [32]byte, ok bool) {
	cfg := r.Config.Normalized()
	keyer, ok := cfg.Injector.(fault.Keyer)
	if !ok {
		return key, false
	}
	td := r.prep.digestOf(r.Job.Tasks)
	h := sha256.New()
	b := make([]byte, 0, flushAt+256)
	b = append(b, 'R', '1', 'J') // request kind + encoding version
	b = appendString(b, r.Job.Name)
	b = append(b, td[:]...)
	b = appendConfig(h, b, cfg, keyer)
	h.Write(b)
	h.Sum(key[:0])
	return key, true
}

// tasksDigest hashes the canonical encoding of the task list. The section
// digests separately from the rest of the request (its 32-byte digest is
// spliced into the request stream) so a Prepared job computes it once
// instead of once per request.
func tasksDigest(tasks []cluster.Task) (d [sha256.Size]byte) {
	h := sha256.New()
	b := make([]byte, 0, flushAt+256)
	var edges [][2]int64 // one task's edges, reused across tasks
	b = appendU64(b, uint64(len(tasks)))
	for i := range tasks {
		t := &tasks[i]
		b = appendString(b, t.Label)
		b = appendI64(b, int64(t.Node))
		b = appendI64(b, int64(t.Cost))
		b = appendI64(b, t.ArgBytes)
		out := t.OutBytes
		if out == 0 {
			out = t.ArgBytes // what the simulator compares (sim.outBytes)
		}
		b = appendI64(b, out)
		// A task's dependency list is a set: the simulator waits on all
		// predecessors regardless of edge order, so encode edges sorted by
		// (dep, bytes) and permuted spellings digest identically.
		b = appendU64(b, uint64(len(t.Deps)))
		edges = edges[:0]
		for k, d := range t.Deps {
			e := [2]int64{int64(d), 0}
			if t.DepBytes != nil {
				e[1] = t.DepBytes[k]
			}
			edges = append(edges, e)
		}
		slices.SortFunc(edges, cmpEdge)
		for _, e := range edges {
			b = appendI64(b, e[0])
			b = appendI64(b, e[1])
		}
		if len(b) >= flushAt {
			b = flush(h, b)
		}
	}
	h.Write(b)
	h.Sum(d[:0])
	return d
}

func cmpEdge(a, b [2]int64) int {
	return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1]))
}

// appendConfig encodes a normalized config, flushing to h as the
// Replicated section fills b. The injector is encoded through its Keyer;
// the caller has already checked the assertion.
func appendConfig(h hash.Hash, b []byte, cfg cluster.Config, keyer fault.Keyer) []byte {
	b = append(b, 'C')
	b = appendI64(b, int64(cfg.Nodes))
	b = appendI64(b, int64(cfg.CoresPerNode))
	b = appendTopology(b, cfg.Topo)
	b = appendI64(b, int64(cfg.ReplicaCores))
	// Replicated: encode the sorted indices of replicated tasks, so nil,
	// all-false and trailing-false spellings digest identically.
	n := 0
	for _, r := range cfg.Replicated {
		if r {
			n++
		}
	}
	b = appendU64(b, uint64(n))
	for i, r := range cfg.Replicated {
		if r {
			b = appendU64(b, uint64(i))
			if len(b) >= flushAt {
				b = flush(h, b)
			}
		}
	}
	return keyer.AppendKey(b)
}

func appendNet(b []byte, n simnet.Config) []byte {
	b = appendF64(b, n.LatencySec)
	return appendF64(b, n.BandwidthBytesPerSec)
}

func appendTopology(b []byte, t *simnet.Topology) []byte {
	if t == nil {
		return append(b, 'T', '0')
	}
	b = append(b, 'T', '1')
	ranks := t.Ranks()
	b = appendU64(b, uint64(ranks))
	for r := 0; r < ranks; r++ {
		b = appendI64(b, int64(t.NodeOf(r)))
	}
	b = appendNet(b, t.Intra())
	return appendNet(b, t.Inter())
}
