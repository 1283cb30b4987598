// Dependency-gated collectives, scoped to a communicator. Each collective
// is decomposed into the same comm-task primitive Send/Recv use, submitted
// into every member rank's dataflow graph, so a collective overlaps with
// unrelated computation and orders itself against related computation
// purely through region accesses — there is no world-wide synchronous call.
//
// Every collective has one argument check and one statement of each
// schedule it can run; the exported *Flat/*Hier/Allreduce* variants
// validate and then run the schedule they name, and the plain names
// (Broadcast, Allgather, Allgatherv, Allreduce) pick the
// variant from the communicator's placement — for Allreduce, through plan.
// The schedules are the classic ones of Thakur, Rabenseifner & Gropp
// (Optimization of Collective Communication Operations in MPICH, IJHPCA
// 2005): binomial tree, ring, recursive doubling, recursive vector halving.
// This file holds the message plumbing they share (lane), the flat
// schedules and the Allreduce selection; hier.go holds the leader-based
// shapes and vector.go the counts/displacements collectives.
//
// Two ordering mechanisms are at work:
//
//   - data-carrying collectives chain through the user's region itself: a
//     tree rank's forwarding sends read the region its receive wrote — and a
//     ring rank forwards the block its previous-step receive delivered — so
//     the dataflow tracker orders them;
//   - Barrier has no payload, so its rounds serialize through an Inout
//     access on a reserved per-member token region (Comm.tokArg) instead;
//     the same token orders back-to-back collectives of one communicator on
//     one member.
//
// Tags: a collective's plumbing lives in its own Match class with a
// class-private subchannel (the barrier round, the tree root, the ring or
// doubling step), so user tags can never collide with it and same-tag
// collectives rooted differently never share a mailbox; the communicator
// context id keeps even identical plumbing of two communicators apart. Two
// same-tag same-root collectives outstanding at once on one communicator
// stay FIFO-consistent because the token serializes each member's plumbing
// in submission order — which is why every schedule below keeps each
// member's own submissions in a fixed order, whatever order the members
// are visited in.
package dist

import (
	"fmt"
	"math/bits"
	"reflect"
	"strconv"

	"appfit/internal/buffer"
	"appfit/internal/rt"
)

// collKey is the reserved region prefix for collective plumbing; user
// region names must not start with it.
const collKey = "\x00dist"

// Subchannel values for the fold-in traffic of members beyond the largest
// power of two, outside the range the doubling rounds (Sub = round index)
// can reach.
const (
	subTreePre  = 1 << 20
	subTreePost = 1<<20 + 1
)

// mod is a modulo n in [0, n), for ring neighbours left of member 0.
func mod(a, n int) int { return (a%n + n) % n }

// pick returns all[idx[0]], all[idx[1]], …: one group's share of a
// per-member slice, in group order.
func pick[T any](all []T, idx []int) []T {
	out := make([]T, len(idx))
	for k, i := range idx {
		out[k] = all[i]
	}
	return out
}

// anyBufs widens typed buffers to the interface slice Broadcast takes.
func anyBufs(v []buffer.F64) []buffer.Buffer {
	out := make([]buffer.Buffer, len(v))
	for i, b := range v {
		out[i] = b
	}
	return out
}

// checkMembers records a World error and reports false when a collective's
// per-member argument slice does not have exactly one entry per member.
func (c *Comm) checkMembers(op string, got int) bool {
	if got != len(c.members) {
		c.w.addErr(fmt.Errorf("dist: %s on a %d-member communicator with %d buffers: %w",
			op, len(c.members), got, ErrCollectiveArgs))
		return false
	}
	return true
}

// checkVectors is checkMembers for per-member vectors that must all have
// member 0's length (Allreduce operands, Allgatherv's shared vector).
func (c *Comm) checkVectors(op string, bufs []buffer.F64) bool {
	if !c.checkMembers(op, len(bufs)) {
		return false
	}
	for i, b := range bufs {
		if len(b) != len(bufs[0]) {
			c.w.addErr(fmt.Errorf("dist: %s member %d buffer has %d elements, member 0 has %d: %w",
				op, i, len(b), len(bufs[0]), ErrCollectiveArgs))
			return false
		}
	}
	return true
}

// lane is the message channel of one collective call on one communicator:
// every message it moves shares the Match class and tag and differs only in
// subchannel and endpoints (comm ranks). All collective traffic except the
// payload-free Barrier goes through its four methods, so what a message
// looks like — Match, token gating, label — is stated once.
type lane struct {
	c     *Comm
	class Class
	tag   int
	label string
}

func (c *Comm) lane(class Class, tag int, label string) lane {
	return lane{c: c, class: class, tag: tag, label: label}
}

func (l lane) match(sub, from, to int) Match {
	return Match{Ctx: l.c.ctx, Src: l.c.worldID(from), Dst: l.c.worldID(to), Class: l.class, Tag: l.tag, Sub: sub}
}

// send submits member from's send of src to member to.
func (l lane) send(sub, from, to int, src rt.Arg) {
	l.c.members[from].commSend(l.label+">"+strconv.Itoa(to), l.match(sub, from, to), 0, src, l.c.tokArg(from))
}

// recv submits member to's receive into dst of member from's message.
func (l lane) recv(sub, from, to int, dst rt.Arg) {
	l.c.members[to].commRecv(l.label+"<"+strconv.Itoa(from), l.match(sub, from, to), 0, dst, l.c.tokArg(to))
}

// transfer submits both ends of one message: from's send of src, to's
// receive into dst.
func (l lane) transfer(sub, from, to int, src, dst rt.Arg) {
	l.send(sub, from, to, src)
	l.recv(sub, from, to, dst)
}

// sendrecv submits member i's side of one exchange step, send first
// (MPI_Sendrecv): src goes to member to, dst is filled by member from.
func (l lane) sendrecv(sub, i, to, from int, src, dst rt.Arg) {
	l.send(sub, i, to, src)
	l.recv(sub, from, i, dst)
}

// barrierRounds is the number of dissemination rounds for n ranks.
func barrierRounds(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// Barrier submits member cr's side of a dissemination barrier over its
// communicator: ceil(log2 n) rounds where round k sends an empty frame to
// comm rank (r+2^k) mod n and waits for one from (r-2^k) mod n. Every
// member must call Barrier once with the same tag. The optional args gate
// the barrier in the member's dataflow graph: tasks the args depend on run
// before the barrier, tasks depending on them run after it. With no args
// the barrier only orders against other collectives of this communicator on
// the member (via the token region), not against compute.
func (cr *CommRank) Barrier(tag int, args ...rt.Arg) {
	if cr.id < 0 {
		return // Comm.Rank already recorded the error
	}
	c := cr.c
	n := len(c.members)
	r := c.members[cr.id]
	l := c.lane(ClassBarrier, tag, "barrier")
	gate := make([]rt.Arg, 0, len(args)+1)
	gate = append(gate, args...)
	gate = append(gate, c.tokArg(cr.id))
	for k := 0; k < barrierRounds(n); k++ {
		to, from := (cr.id+1<<k)%n, mod(cr.id-1<<k, n)
		label := fmt.Sprintf("barrier:%d/%d", tag, k)
		r.commSend(label, l.match(k, cr.id, to), -1, gate...)
		r.commRecv(label, l.match(k, from, cr.id), -1, gate...)
	}
}

// Barrier submits a barrier over all members, gated only on each member's
// collective token (see CommRank.Barrier for data-gated barriers).
func (c *Comm) Barrier(tag int) { //lint:unusedexport the perf ledger calls it (BenchmarkWorldScale)
	for i := range c.members {
		c.handles[i].Barrier(tag)
	}
}

// Broadcast replicates root's buffer into every member's buffer for region
// name: bufs[i] is comm rank i's buffer, and all must match root's type and
// length. On a communicator whose topology is non-flat (see Hierarchical)
// it runs the three-phase bcastHier, otherwise one binomial tree over the
// whole communicator (bcast). Both move bitwise-identical payloads in n−1
// messages; only the routing — and therefore the fabric cost — differs.
// An out-of-range root, a bufs slice of the wrong length or a nil buffer
// in it records a World error and submits nothing.
func (c *Comm) Broadcast(root, tag int, name string, bufs []buffer.Buffer) {
	c.broadcast(c.hier, root, tag, name, bufs)
}

// broadcast validates a Broadcast call and runs the chosen shape: hier
// forces the hierarchical schedule, else the flat tree.
func (c *Comm) broadcast(hier bool, root, tag int, name string, bufs []buffer.Buffer) {
	if !c.checkMembers("Broadcast", len(bufs)) || !c.checkBufs("Broadcast", bufs...) {
		return
	}
	if n := len(c.members); root < 0 || root >= n {
		c.w.addErr(fmt.Errorf("dist: Broadcast root %d of %d members: %w", root, n, ErrRankOutOfRange))
		return
	}
	if hier {
		c.bcastHier(root, tag, name, bufs)
		return
	}
	c.bcast(root, tag, name, bufs)
}

// bcast is the binomial-tree schedule: relative rank j (comm rank minus
// root, mod n) receives from j − 2^⌊log2 j⌋ and forwards to every j + 2^k
// with 2^k > j. Parents are visited before their children, so a member's
// receive is submitted ahead of its forwarding sends, which read the region
// that receive wrote — the whole tree is ordered by the dataflow tracker
// alone. Plumbing travels in ClassBcast with the root as the subchannel.
// A one-member communicator submits nothing.
func (c *Comm) bcast(root, tag int, name string, bufs []buffer.Buffer) {
	n := len(c.members)
	l := c.lane(ClassBcast, tag, "bcast:"+name)
	for rel := 0; rel < n; rel++ {
		i := (rel + root) % n
		for k := bits.Len(uint(rel)); rel+1<<k < n; k++ {
			child := (rel + 1<<k + root) % n
			l.transfer(root, i, child, rt.In(name, bufs[i]), rt.Out(name, bufs[child]))
		}
	}
}

// blocks names the per-member buffers of a gather: key(j) is block j's
// region on every member, at(i, j) member i's buffer for it.
type blocks struct {
	key func(j int) string
	at  func(i, j int) buffer.Buffer
}

// column returns block j's buffer on each of the given members.
func (b blocks) column(members []int, j int) []buffer.Buffer {
	out := make([]buffer.Buffer, len(members))
	for k, i := range members {
		out[k] = b.at(i, j)
	}
	return out
}

// ring is the allgather ring schedule: in step s of n−1, each member
// forwards to its right neighbor (comm rank order) the block it received in
// step s−1 (its own block in step 0) and receives one from its left
// neighbor — n(n−1) messages total, every one over a ring link, with no
// root hotspot. The forwarding send of step s reads the region the receive
// of step s−1 wrote, so the ring pipelines with computation member by
// member. The ring step is the subchannel, so a step-s frame can never
// match a step-s′ receive even when an eager sender runs two forwards
// back-to-back.
func (l lane) ring(b blocks) {
	n := len(l.c.members)
	for step := 0; step < n-1; step++ {
		for i := 0; i < n; i++ {
			fwd, inc := mod(i-step, n), mod(i-step-1, n)
			l.sendrecv(step, i, (i+1)%n, mod(i-1, n),
				rt.In(b.key(fwd), b.at(i, fwd)), rt.Out(b.key(inc), b.at(i, inc)))
		}
	}
}

// Allgather leaves every member holding every member's block for the named
// regions. bufs[i][j] is comm rank i's buffer for block j; comm rank i's
// own bufs[i][i] is the source and all must match it in type and length.
// name(j) is block j's region key on every member, so compute reading
// name(j) is gated on the step that delivers block j. On a communicator
// whose topology is non-flat (see Hierarchical) it runs the three-phase
// allgatherHier, otherwise one ring over the whole communicator (see ring)
// in ClassGather — its own Match class, so it can never collide with a
// same-tag Broadcast. Both move bitwise-identical payloads in n(n−1)
// messages; only the routing — and therefore the fabric cost — differs.
func (c *Comm) Allgather(tag int, name func(j int) string, bufs [][]buffer.Buffer) {
	c.allgather(c.hier, tag, name, bufs)
}

// allgather validates an Allgather call and runs the chosen shape: hier
// forces the hierarchical schedule, else the flat ring.
func (c *Comm) allgather(hier bool, tag int, name func(j int) string, bufs [][]buffer.Buffer) {
	if !c.checkMembers("Allgather", len(bufs)) {
		return
	}
	for i := range bufs {
		op := fmt.Sprintf("Allgather member %d blocks", i)
		if !c.checkMembers(op, len(bufs[i])) || !c.checkBufs(op, bufs[i]...) {
			return
		}
	}
	b := blocks{key: name, at: func(i, j int) buffer.Buffer { return bufs[i][j] }}
	if hier {
		c.allgatherHier(tag, b)
		return
	}
	c.lane(ClassGather, tag, "allgather").ring(b)
}

// ReduceOp combines src into dst element-wise (len(dst) == len(src)). The
// reduction runs as an ordinary compute task, so an op must be deterministic
// in its arguments — the replication engine compares outputs bitwise, and a
// nondeterministic op would be reported as silent data corruption.
type ReduceOp func(dst, src []float64)

// Predefined reduction operators. All three are commutative, so they are
// valid for every Allreduce algorithm.
var (
	// OpSum accumulates dst[j] += src[j].
	OpSum ReduceOp = func(dst, src []float64) {
		for j := range dst {
			dst[j] += src[j]
		}
	}
	// OpMin keeps the element-wise minimum.
	OpMin ReduceOp = func(dst, src []float64) {
		for j := range dst {
			if src[j] < dst[j] {
				dst[j] = src[j]
			}
		}
	}
	// OpMax keeps the element-wise maximum.
	OpMax ReduceOp = func(dst, src []float64) {
		for j := range dst {
			if src[j] > dst[j] {
				dst[j] = src[j]
			}
		}
	}
)

// builtinCommutative reports whether op is one of the predefined operators,
// the only ones the runtime knows to be commutative. ReduceOp is a func
// type, so identity — not behavior — is compared.
func builtinCommutative(op ReduceOp) bool {
	p := reflect.ValueOf(op).Pointer()
	return p == reflect.ValueOf(OpSum).Pointer() ||
		p == reflect.ValueOf(OpMin).Pointer() ||
		p == reflect.ValueOf(OpMax).Pointer()
}

// Allreduce algorithm-selection crossovers, in per-member payload BYTES —
// not element counts, so the selection stays right whatever the element
// width and when the hierarchical leader phase re-plans on the leaders'
// vectors.
const (
	// TreeAllreduceCrossoverBytes is where Allreduce leaves the
	// gather+broadcast algorithm for the recursive-doubling tree. Below it,
	// the 2(n−1) small messages of the gather win; at and above it, moving
	// ⌈log2 n⌉ full vectors per member in parallel beats funnelling n−1 of
	// them through member 0 (BenchmarkAllreduceTreeVsGather in
	// internal/bench/scale records the trade-off).
	TreeAllreduceCrossoverBytes = 4096
	// RabenseifnerCrossoverBytes is where the tree yields to Rabenseifner's
	// reduce-scatter + allgather: past it the tree's V·log2(p) bytes per
	// member dwarf Rabenseifner's ~2·V, and the doubled message count stops
	// mattering (BenchmarkAllreduceRabVsTree records the trade-off at
	// 64–256 ranks).
	RabenseifnerCrossoverBytes = 64 << 10
)

// allreduceAlg names an Allreduce schedule.
type allreduceAlg uint8

const (
	algAuto allreduceAlg = iota // whatever plan selects
	algGather
	algTree
	algRabenseifner
	algHier
)

// plan is the Allreduce selection, the only place an algorithm is chosen:
// Comm.Allreduce and the hierarchical leader phase both consult it. A
// custom op — whose commutativity the runtime cannot see — always takes the
// gather, which folds in strict comm-rank order and is valid for any
// deterministic op, placed or not; every other schedule groups or reorders
// operands. A builtin (commutative) op goes hierarchical on a placed
// communicator, and otherwise by per-member payload bytes: gather below
// TreeAllreduceCrossoverBytes (and always for one or two members), the
// recursive-doubling tree up to RabenseifnerCrossoverBytes, Rabenseifner
// past it.
func plan(op ReduceOp, bytes int64, members int, hierarchical bool) allreduceAlg {
	switch {
	case !builtinCommutative(op):
		return algGather
	case hierarchical:
		return algHier
	case members <= 2 || bytes < TreeAllreduceCrossoverBytes:
		return algGather
	case bytes < RabenseifnerCrossoverBytes:
		return algTree
	}
	return algRabenseifner
}

// Allreduce leaves op's reduction of every member's float64 buffer for
// region name in all of them, by the algorithm plan selects: allreduceHier
// on a placed communicator (whose leader exchange re-plans, so large leader
// vectors take Rabenseifner automatically), else AllreduceGather,
// AllreduceTree or AllreduceRabenseifner by payload size. All buffers must
// have one length; a mismatch records ErrCollectiveArgs and submits
// nothing. Call a named variant explicitly for a custom op you know is
// commutative.
func (c *Comm) Allreduce(tag int, name string, bufs []buffer.F64, op ReduceOp) {
	c.allreduce(algAuto, tag, name, bufs, op)
}

// AllreduceSum is Allreduce with OpSum.
func (c *Comm) AllreduceSum(tag int, name string, bufs []buffer.F64) {
	c.Allreduce(tag, name, bufs, OpSum)
}

// AllreduceGather is the gather+broadcast Allreduce: members 1..n−1 send
// their buffers to member 0, which folds them into its own buffer in rank
// order with an ordinary compute task — deterministic in its arguments, so
// the member's selector may replicate and the injector may corrupt it like
// any computation — and the result is broadcast back down the binomial
// tree. 2(n−1) messages. Valid for any deterministic op, commutative or not.
func (c *Comm) AllreduceGather(tag int, name string, bufs []buffer.F64, op ReduceOp) { //lint:unusedexport the perf ledger calls it (BenchmarkAllreduceTreeVsGather)
	c.allreduce(algGather, tag, name, bufs, op)
}

// AllreduceTree is the recursive-doubling Allreduce: ⌈log2 p⌉ rounds among
// the largest power-of-two group p ≤ n — in round k member i exchanges its
// full vector with member i xor 2^k and both fold the incoming copy — with
// the other n−p members folded in before and served after (see
// pow2.bracket). Every fold is an ordinary compute task (replicable,
// corruptible); the exchanges chain through the user's region, so round k's
// send reads the vector round k−1's fold wrote. Because members fold in
// different orders, op must be commutative for all members to converge on
// bitwise-identical results (IEEE float addition, min and max are). Message
// count: p·log2(p) + 2(n−p) full vectors.
func (c *Comm) AllreduceTree(tag int, name string, bufs []buffer.F64, op ReduceOp) {
	c.allreduce(algTree, tag, name, bufs, op)
}

// allreduce validates an Allreduce call once — one buffer per member, all
// of one length — resolves algAuto through plan, and runs the schedule.
func (c *Comm) allreduce(alg allreduceAlg, tag int, name string, bufs []buffer.F64, op ReduceOp) {
	if !c.checkVectors("Allreduce", bufs) || len(c.members) == 1 {
		return
	}
	if alg == algAuto {
		alg = plan(op, bufs[0].SizeBytes(), len(c.members), c.hier)
	}
	switch alg {
	case algGather:
		c.reduceAtZero(tag, name, bufs, op)
		c.bcast(0, tag, name, anyBufs(bufs))
	case algTree:
		c.allreduceTree(tag, name, bufs, op)
	case algRabenseifner:
		c.allreduceRabenseifner(tag, name, bufs, op)
	case algHier:
		c.allreduceHier(tag, name, bufs, op)
	}
}

// reduceAtZero is the gather half of AllreduceGather (and the node-local
// phase of allreduceHier): members 1..n−1 ship their vectors for region
// name to member 0, each into its own staged buffer, and member 0 folds them
// into its own buffer in comm rank order with an ordinary compute task.
func (c *Comm) reduceAtZero(tag int, name string, bufs []buffer.F64, op ReduceOp) {
	if len(c.members) == 1 {
		return
	}
	l := c.lane(ClassReduce, tag, "reduce:"+name)
	prefix := fmt.Sprintf("%s:ar:%d:%d:", collKey, c.ctx, tag)
	args := []rt.Arg{rt.Inout(name, bufs[0])}
	for i := 1; i < len(bufs); i++ {
		tmp := rt.Out(prefix+strconv.Itoa(i), c.w.stageF64(len(bufs[0])))
		l.transfer(0, i, 0, rt.In(name, bufs[i]), tmp)
		args = append(args, rt.In(tmp.Key, tmp.Buf))
	}
	c.members[0].rt.Submit("allreduce", func(ctx *rt.Ctx) {
		dst := ctx.F64(0)
		for a := 1; a < ctx.NArgs(); a++ {
			op(dst, ctx.F64(a))
		}
	}, args...)
}

// pow2 is what the two power-of-two Allreduce schedules (the doubling tree
// and Rabenseifner) share: a lane, the staging keys of their receives, and
// the fold task that consumes a receive.
type pow2 struct {
	lane
	kind string // "tree" or "rab": staging-key infix and fold-task label
	name string
	bufs []buffer.F64
	op   ReduceOp
}

// stage leases an n-element receive buffer under the schedule's staging key
// for phase/k.
func (p *pow2) stage(phase string, k, n int) rt.Arg {
	return rt.Out(fmt.Sprintf("%s:%s:%d:%d:%s%d", collKey, p.kind, p.c.ctx, p.tag, phase, k), p.c.w.stageF64(n))
}

// fold submits member i's fold of a staged receive into [lo, hi) of its
// vector — an ordinary compute task.
func (p *pow2) fold(i, lo, hi int, tmp rt.Arg) {
	op := p.op
	p.c.members[i].rt.Submit(p.kind+"red", func(ctx *rt.Ctx) {
		op(ctx.F64(0)[lo:hi], ctx.F64(1))
	}, rt.Inout(p.name, p.bufs[i]), rt.In(tmp.Key, tmp.Buf))
}

// bracket runs rounds among members 0..p−1, p the largest power of two ≤ n,
// on a communicator of any size: each extra member p+j first folds its
// full vector into member j, and after the rounds member j ships the
// finished vector back to it.
func (p *pow2) bracket(rounds func(p int)) {
	n, V := len(p.bufs), len(p.bufs[0])
	pw := 1 << (bits.Len(uint(n)) - 1)
	for j := 0; j+pw < n; j++ {
		tmp := p.stage("pre", j, V)
		p.transfer(subTreePre, pw+j, j, rt.In(p.name, p.bufs[pw+j]), tmp)
		p.fold(j, 0, V, tmp)
	}
	rounds(pw)
	for j := 0; j+pw < n; j++ {
		p.transfer(subTreePost, j, pw+j, rt.In(p.name, p.bufs[j]), rt.Out(p.name, p.bufs[pw+j]))
	}
}

// allreduceTree is AllreduceTree's schedule. Plumbing travels in ClassTree
// with the round index as the subchannel.
func (c *Comm) allreduceTree(tag int, name string, bufs []buffer.F64, op ReduceOp) {
	V := len(bufs[0])
	t := &pow2{lane: c.lane(ClassTree, tag, "tree:"+name), kind: "tree", name: name, bufs: bufs, op: op}
	t.bracket(func(p int) {
		for k, step := 0, 1; step < p; k, step = k+1, step*2 {
			for i := 0; i < p; i++ {
				tmp := t.stage("rnd", k, V)
				t.sendrecv(k, i, i^step, i^step, rt.In(name, bufs[i]), tmp)
				t.fold(i, 0, V, tmp)
			}
		}
	})
}
