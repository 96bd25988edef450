// Package transport provides the network substrates the aggregation
// protocols run over: an in-memory switch fabric with per-worker delivery
// rings and deterministic loss injection (for protocol tests and
// benchmarks), and a UDP fabric for running the same protocols across real
// sockets (examples and the fpisa-switch daemon).
//
// # Vectored I/O
//
// The fabric contract is batched: workers submit packet VECTORS
// (Fabric.SendBatch) and drain delivery vectors into reusable buffers
// (Fabric.RecvBatch), and the switch side consumes a whole vector per
// handler invocation (BatchHandler). This is the shape a line-rate data
// plane has — SwitchML-class aggregation amortizes per-packet cost over
// packet vectors per pipeline pass — and it is what lets the Go
// reproduction move gradients without a heap allocation and two copies per
// datagram:
//
//   - the Memory fabric enqueues delivery REFERENCES into per-worker ring
//     buffers (no per-target copy) and copies each packet exactly once, into
//     the receiver's reusable buffer, at RecvBatch time;
//   - the UDP fabric coalesces a send vector into batch-framed datagrams and
//     drains its sockets with pooled read buffers;
//   - receive timeouts use a reusable time.Timer per ring instead of a
//     time.After allocation per call.
//
// Below the framing, the UDP fabric has one portable I/O path: one
// read or write syscall per wire datagram, counted in SyscallStats. A
// sendmmsg/recvmmsg backend made about 5× fewer syscalls but did not
// move end-to-end throughput or latency, so it was removed.
//
// # Ownership rules
//
// Batching only stays zero-copy under explicit buffer ownership:
//
//   - SendBatch: the caller keeps ownership of pkts and may reuse them as
//     soon as the call returns. The handler runs synchronously within
//     SendBatch/the serve loop and MUST NOT retain the input slices past
//     its return.
//   - BatchHandler deliveries: ownership of every Delivery.Packet passes to
//     the fabric, which may hold it until delivery (the Memory ring stores
//     the reference, a result cache may replay it later). Handlers must
//     treat a delivered packet as immutable and must not alias the input
//     pkts into a delivery — copy into a fresh buffer instead.
//   - RecvBatch: packets are copied into the caller's bufs (growing them as
//     needed, so nil buffers work); the caller owns them outright.
//
// # Compatibility shim
//
// Single-packet callers keep working through the package-level Send and
// Recv wrappers, which adapt one packet to a one-element vector (Recv
// allocates the returned buffer, preserving the historical ownership
// contract), and through WrapHandler, which lifts a per-packet Handler to a
// BatchHandler. The shim is the legacy copying path — new code should use
// the vectored API directly (see BenchmarkFabricThroughput for the gap).
package transport

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// ErrTimeout is returned by RecvBatch (and the Recv shim) when no packet
// arrives in time.
var ErrTimeout = errors.New("transport: receive timeout")

// ErrClosed is returned by SendBatch (and the Send shim) after Close.
var ErrClosed = errors.New("transport: fabric closed")

// Delivery routes one switch output packet.
type Delivery struct {
	// Worker is the destination worker index; Broadcast overrides it.
	Worker    int
	Broadcast bool
	Packet    []byte
}

// DeliveryList accumulates a handler invocation's output deliveries. The
// fabric owns the list and recycles it across handler calls, so the
// backing array is reused instead of reallocated per packet; handlers only
// append (Unicast/Broadcast/Append).
type DeliveryList struct {
	ds []Delivery
}

// Unicast appends a delivery addressed to one worker.
func (l *DeliveryList) Unicast(worker int, pkt []byte) {
	l.ds = append(l.ds, Delivery{Worker: worker, Packet: pkt})
}

// Broadcast appends a delivery addressed to every worker.
func (l *DeliveryList) Broadcast(pkt []byte) {
	l.ds = append(l.ds, Delivery{Broadcast: true, Packet: pkt})
}

// Append appends a prebuilt delivery.
func (l *DeliveryList) Append(d Delivery) { l.ds = append(l.ds, d) }

// Len reports the number of accumulated deliveries.
func (l *DeliveryList) Len() int { return len(l.ds) }

// Deliveries exposes the accumulated deliveries; the slice is valid until
// the next Reset.
func (l *DeliveryList) Deliveries() []Delivery { return l.ds }

// Reset empties the list, keeping capacity but dropping packet references
// so recycled lists do not pin delivered buffers.
func (l *DeliveryList) Reset() {
	for i := range l.ds {
		l.ds[i].Packet = nil
	}
	l.ds = l.ds[:0]
}

// Take detaches and returns the accumulated deliveries (nil when empty),
// leaving the list empty. Used by single-packet shims that must hand
// ownership of the slice to their caller.
func (l *DeliveryList) Take() []Delivery {
	if len(l.ds) == 0 {
		return nil
	}
	ds := l.ds
	l.ds = nil
	return ds
}

// BatchHandler is the switch's packet function: it consumes one worker's
// packet vector and appends any deliveries to out. Fabrics may invoke the
// handler from several goroutines at once — a multi-pipe switch processes
// packet vectors on every pipeline in parallel — so handlers must do their
// own locking (the sharded aggservice switch takes one lock round per shard
// per batch). See the package comment for the buffer-ownership rules.
type BatchHandler func(worker int, pkts [][]byte, out *DeliveryList)

// Handler is the legacy per-packet switch function, kept for single-packet
// protocol stacks (internal/switchml); WrapHandler lifts it to the
// vectored contract.
type Handler func(worker int, pkt []byte) []Delivery

// WrapHandler adapts a per-packet Handler to the vectored BatchHandler
// contract, invoking it once per packet.
func WrapHandler(h Handler) BatchHandler {
	return func(worker int, pkts [][]byte, out *DeliveryList) {
		for _, pkt := range pkts {
			for _, d := range h(worker, pkt) {
				out.Append(d)
			}
		}
	}
}

// Fabric connects workers to one switch through vectored I/O.
type Fabric interface {
	// SendBatch submits a vector of packets from one worker to the switch.
	// The caller may reuse pkts (and their backing arrays) once it returns.
	SendBatch(worker int, pkts [][]byte) error
	// RecvBatch blocks up to timeout for the worker's next delivery, then
	// drains — without further blocking — up to len(bufs) packets, copying
	// packet i into bufs[i] (reusing its capacity, growing it as needed; a
	// nil buffer is allocated). It returns the packet count, which is ≥ 1
	// unless err is non-nil.
	RecvBatch(worker int, bufs [][]byte, timeout time.Duration) (int, error)
	// Close releases resources.
	Close() error
}

// Pusher is implemented by fabric switch sides that can deliver
// switch-ORIGINATED packets outside a handler invocation: Memory routes
// into the worker rings, UDPServer writes to the learned return paths. An
// aggregation-tree leaf needs this seam — a parent's RESULT arrives on the
// leaf's uplink, not inside any downlink handler call, and still has to
// fan down to the leaf's own workers.
type Pusher interface {
	// Push routes deliveries exactly like handler output (per-destination
	// coalescing, broadcast fan-out). Ownership of every Delivery.Packet
	// passes to the fabric, as with handler deliveries.
	Push(ds []Delivery) error
}

// Send is the single-packet compatibility shim over Fabric.SendBatch.
func Send(f Fabric, worker int, pkt []byte) error {
	return f.SendBatch(worker, [][]byte{pkt})
}

// Recv is the single-packet compatibility shim over Fabric.RecvBatch: it
// blocks for one delivery and returns it in a freshly allocated buffer the
// caller owns (the historical Recv contract).
func Recv(f Fabric, worker int, timeout time.Duration) ([]byte, error) {
	var one [1][]byte
	if _, err := f.RecvBatch(worker, one[:], timeout); err != nil {
		return nil, err
	}
	return one[0], nil
}

// ring is one worker's delivery queue: a fixed-capacity FIFO of packet
// references. Pushes drop on overflow, as a NIC ring would; pops copy into
// the receiver's buffers. The receive timeout reuses one timer per ring
// instead of allocating a time.After channel per call.
type ring struct {
	mu     sync.Mutex
	buf    [][]byte
	head   int
	n      int
	notify chan struct{} // capacity 1: wakes a blocked pop

	// popMu serializes poppers so the reusable timer has one owner; a
	// worker's deliveries are consumed by one receiver at a time.
	popMu sync.Mutex
	timer *time.Timer
}

func newRing(depth int) *ring {
	return &ring{buf: make([][]byte, depth), notify: make(chan struct{}, 1)}
}

// pushN enqueues packet references, returning how many fit before the ring
// overflowed.
func (r *ring) pushN(pkts [][]byte) int {
	r.mu.Lock()
	accepted := 0
	for _, pkt := range pkts {
		if r.n == len(r.buf) {
			break
		}
		r.buf[(r.head+r.n)%len(r.buf)] = pkt
		r.n++
		accepted++
	}
	r.mu.Unlock()
	if accepted > 0 {
		select {
		case r.notify <- struct{}{}:
		default:
		}
	}
	return accepted
}

// pop copies up to len(bufs) packets into bufs, blocking up to timeout for
// the first.
func (r *ring) pop(bufs [][]byte, timeout time.Duration) (int, error) {
	if len(bufs) == 0 {
		return 0, fmt.Errorf("transport: RecvBatch needs at least one buffer")
	}
	r.popMu.Lock()
	defer r.popMu.Unlock()
	deadline := time.Now().Add(timeout)
	for {
		r.mu.Lock()
		if r.n > 0 {
			k := min(len(bufs), r.n)
			for i := 0; i < k; i++ {
				pkt := r.buf[r.head]
				r.buf[r.head] = nil
				r.head = (r.head + 1) % len(r.buf)
				r.n--
				bufs[i] = append(bufs[i][:0], pkt...)
			}
			r.mu.Unlock()
			return k, nil
		}
		r.mu.Unlock()
		remaining := time.Until(deadline)
		if remaining <= 0 {
			return 0, ErrTimeout
		}
		if r.timer == nil {
			r.timer = time.NewTimer(remaining)
		} else {
			if !r.timer.Stop() {
				select {
				case <-r.timer.C:
				default:
				}
			}
			r.timer.Reset(remaining)
		}
		select {
		case <-r.notify:
		case <-r.timer.C:
			// Re-check the ring before giving up: a push may have raced
			// the timer (the loop's size check decides, not the race).
		}
	}
}

// Memory is an in-memory fabric with independent loss probabilities on the
// uplink (worker→switch) and downlink (switch→worker), driven by a seeded
// RNG for reproducible loss patterns. The handler runs *outside* the
// fabric lock, so workers sending concurrently drive the switch
// concurrently — the fabric only serializes the RNG and its counters.
// Deliveries land in per-worker rings by reference; the only copy happens
// into the receiver's reusable buffers at RecvBatch time.
type Memory struct {
	workers int
	handler BatchHandler
	uplinkP float64
	downP   float64
	// closeMu is read-held for a SendBatch's whole duration (handler
	// included) and write-held by Close, which therefore still acts as a
	// barrier: once Close returns, no handler is running and no further
	// deliveries land.
	closeMu sync.RWMutex
	mu      sync.Mutex // guards the RNG, counters and closed flag
	rng     *rand.Rand
	rings   []*ring
	closed  bool

	routePool sync.Pool // *routeState: per-SendBatch routing scratch

	// Stats
	sent, lostUp, lostDown, delivered uint64
}

// destGroups groups delivery packets per destination worker, tracking
// first use — the routing scaffolding shared by Memory.SendBatch and the
// UDP serve loop, so its reference-dropping reset exists exactly once.
type destGroups struct {
	perDst  [][][]byte
	touched []int
}

func (g *destGroups) init(workers int) {
	g.perDst = make([][][]byte, workers)
}

// route appends pkt to worker w's pending group.
func (g *destGroups) route(w int, pkt []byte) {
	if len(g.perDst[w]) == 0 {
		g.touched = append(g.touched, w)
	}
	g.perDst[w] = append(g.perDst[w], pkt)
}

// reset empties every touched group, dropping packet references so the
// recycled scaffolding does not pin delivered buffers.
func (g *destGroups) reset() {
	for _, w := range g.touched {
		group := g.perDst[w]
		for i := range group {
			group[i] = nil
		}
		g.perDst[w] = group[:0]
	}
	g.touched = g.touched[:0]
}

// routeState is a SendBatch invocation's reusable scratch: the delivery
// list handed to the handler, per-destination packet groups, and the
// per-delivery loss decisions.
type routeState struct {
	dl     DeliveryList
	groups destGroups
	drops  []bool
	alive  [][]byte
}

// MemoryConfig configures the in-memory fabric.
type MemoryConfig struct {
	Workers int
	// BatchHandler is the switch's vectored packet function. Exactly one
	// of BatchHandler and Handler must be set.
	BatchHandler BatchHandler
	// Handler is the legacy per-packet switch function, wrapped via
	// WrapHandler — the compatibility path for single-packet stacks.
	Handler      Handler
	UplinkLoss   float64
	DownlinkLoss float64
	Seed         int64
	// QueueDepth bounds each worker's delivery ring (default 1024);
	// overflowing deliveries are dropped, as a NIC ring would.
	QueueDepth int
}

// NewMemory builds the fabric.
func NewMemory(cfg MemoryConfig) (*Memory, error) {
	if cfg.Workers < 1 {
		return nil, fmt.Errorf("transport: workers %d", cfg.Workers)
	}
	handler := cfg.BatchHandler
	if handler == nil && cfg.Handler != nil {
		handler = WrapHandler(cfg.Handler)
	}
	if handler == nil {
		return nil, fmt.Errorf("transport: nil handler")
	}
	if cfg.BatchHandler != nil && cfg.Handler != nil {
		return nil, fmt.Errorf("transport: both BatchHandler and Handler set")
	}
	if cfg.UplinkLoss < 0 || cfg.UplinkLoss >= 1 || cfg.DownlinkLoss < 0 || cfg.DownlinkLoss >= 1 {
		return nil, fmt.Errorf("transport: loss probabilities must be in [0,1)")
	}
	depth := cfg.QueueDepth
	if depth == 0 {
		depth = 1024
	}
	m := &Memory{
		workers: cfg.Workers,
		handler: handler,
		uplinkP: cfg.UplinkLoss,
		downP:   cfg.DownlinkLoss,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		rings:   make([]*ring, cfg.Workers),
	}
	for i := range m.rings {
		m.rings[i] = newRing(depth)
	}
	m.routePool.New = func() any {
		rs := &routeState{}
		rs.groups.init(cfg.Workers)
		return rs
	}
	return m, nil
}

// SendBatch implements Fabric. The handler runs synchronously in the
// caller's goroutine but outside the fabric lock: concurrent senders
// exercise the switch's own concurrency (per-shard locks), like parallel
// pipelines. The whole vector costs one loss-RNG lock round, one handler
// invocation and one ring lock per destination — not one of each per
// packet.
func (m *Memory) SendBatch(worker int, pkts [][]byte) error {
	if worker < 0 || worker >= m.workers {
		return fmt.Errorf("transport: worker %d out of range %d", worker, m.workers)
	}
	if len(pkts) == 0 {
		return nil
	}
	m.closeMu.RLock()
	defer m.closeMu.RUnlock()

	rs := m.routePool.Get().(*routeState)
	defer m.putRoute(rs)

	// Uplink loss: one lock round decides the whole vector.
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return ErrClosed
	}
	m.sent += uint64(len(pkts))
	alive := pkts
	if m.uplinkP > 0 {
		rs.alive = rs.alive[:0]
		for _, pkt := range pkts {
			if m.rng.Float64() < m.uplinkP {
				m.lostUp++
				continue
			}
			rs.alive = append(rs.alive, pkt)
		}
		alive = rs.alive
	}
	m.mu.Unlock()
	if len(alive) == 0 {
		return nil // silently lost, like the wire
	}

	m.handler(worker, alive, &rs.dl)
	m.routeDown(rs, rs.dl.Deliveries())
	return nil
}

// routeDown runs the downlink half of a delivery vector: one loss-RNG lock
// round for the whole vector, per-destination grouping, and one ring lock
// per destination. Packets are enqueued by reference — the receiver copies
// into its own buffers at RecvBatch time.
func (m *Memory) routeDown(rs *routeState, ds []Delivery) {
	if len(ds) == 0 {
		return
	}
	rs.drops = rs.drops[:0]
	if m.downP > 0 {
		m.mu.Lock()
		for range ds {
			rs.drops = append(rs.drops, m.rng.Float64() < m.downP)
		}
		m.mu.Unlock()
	}
	var lostDown uint64
	for i, d := range ds {
		if len(rs.drops) > 0 && rs.drops[i] {
			lostDown++
			continue
		}
		if d.Broadcast {
			for w := 0; w < m.workers; w++ {
				rs.groups.route(w, d.Packet)
			}
			continue
		}
		if d.Worker < 0 || d.Worker >= m.workers {
			continue
		}
		rs.groups.route(d.Worker, d.Packet)
	}
	var delivered uint64
	for _, w := range rs.groups.touched {
		group := rs.groups.perDst[w]
		accepted := m.rings[w].pushN(group)
		delivered += uint64(accepted)
		lostDown += uint64(len(group) - accepted) // ring overflow = drop
	}
	m.mu.Lock()
	m.delivered += delivered
	m.lostDown += lostDown
	m.mu.Unlock()
}

// Push implements Pusher: switch-originated deliveries enter the worker
// rings through the same downlink path handler output takes, including the
// seeded downlink loss — a pushed packet is as droppable as a replied one,
// which is what the tree retransmit tests lean on.
func (m *Memory) Push(ds []Delivery) error {
	m.closeMu.RLock()
	defer m.closeMu.RUnlock()
	m.mu.Lock()
	closed := m.closed
	m.mu.Unlock()
	if closed {
		return ErrClosed
	}
	rs := m.routePool.Get().(*routeState)
	defer m.putRoute(rs)
	m.routeDown(rs, ds)
	return nil
}

// putRoute resets a routeState (dropping packet references) and returns it
// to the pool.
func (m *Memory) putRoute(rs *routeState) {
	rs.groups.reset()
	for i := range rs.alive {
		rs.alive[i] = nil
	}
	rs.alive = rs.alive[:0]
	rs.drops = rs.drops[:0]
	rs.dl.Reset()
	m.routePool.Put(rs)
}

// RecvBatch implements Fabric.
func (m *Memory) RecvBatch(worker int, bufs [][]byte, timeout time.Duration) (int, error) {
	if worker < 0 || worker >= m.workers {
		return 0, fmt.Errorf("transport: worker %d out of range %d", worker, m.workers)
	}
	return m.rings[worker].pop(bufs, timeout)
}

// Close implements Fabric. It waits for in-flight SendBatches (and their
// handler invocations) to drain; do not call Close from inside a handler.
// Deliveries already ringed remain receivable.
func (m *Memory) Close() error {
	m.closeMu.Lock()
	defer m.closeMu.Unlock()
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	return nil
}

// Stats returns fabric counters: packets sent by workers, losses in each
// direction and deliveries enqueued.
func (m *Memory) Stats() (sent, lostUp, lostDown, delivered uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.sent, m.lostUp, m.lostDown, m.delivered
}
