package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// ObserverID is the reserved frame byte for out-of-band observers (e.g.
// fpisa-query's stats probe): the handler is invoked with worker index
// ObserverWorker (-1), the sender's address is NOT learned as a worker
// return path, and every delivery the handler returns is written straight
// back to the sender.
const (
	ObserverID     = 0xFF
	ObserverWorker = -1
)

// BatchFrameID is the reserved frame byte that marks a batch-framed
// datagram: several packets coalesced into one wire datagram,
//
//	batch frame = [BatchFrameID(1) id(1) count(2) { len(2) pkt }·count]
//
// where id is the sending worker on the uplink and ignored on the
// downlink. Downlink single packets are written raw (unframed), so
// payloads must not begin with BatchFrameID — the aggservice wire format
// (version octet 0xF2) satisfies this by construction.
const BatchFrameID = 0xFE

// batchFrameHdr is the fixed batch-frame header; each framed packet adds a
// two-byte length prefix.
const batchFrameHdr = 4

// maxUDPPayload is the largest datagram payload a batch frame may occupy.
const maxUDPPayload = 65507

// MaxWorkers is the largest worker count the one-byte frame can address,
// with ObserverID and BatchFrameID reserved.
const MaxWorkers = 254

// SyscallStats is a snapshot of a UDP fabric's wire syscall ledger: how
// many times it entered the kernel, and for how many datagrams. Every
// wire read and write is one syscall carrying one datagram, so
// DatagramsPerSyscall reads 1 on a healthy fabric.
type SyscallStats struct {
	// Sendmmsg and Recvmmsg always read 0: the fabric has no
	// kernel-batched I/O path. They remain so existing callers that diff
	// or sum whole snapshots keep compiling; a later benchmark change can
	// drop them.
	Sendmmsg, Recvmmsg uint64
	// SendFallback and RecvFallback count wire write and read syscalls,
	// one datagram each, failed writes included.
	SendFallback, RecvFallback uint64
	// SentDatagrams and RecvDatagrams count datagrams moved.
	SentDatagrams, RecvDatagrams uint64
	// SendErrors counts datagrams that failed to send — oversized packets
	// (> 65507 B) and transient socket errors that would otherwise vanish
	// without trace on the fire-and-forget downlink.
	SendErrors uint64
}

// Syscalls is the total number of wire syscalls.
func (s SyscallStats) Syscalls() uint64 {
	return s.SendFallback + s.RecvFallback
}

// DatagramsPerSyscall is the achieved kernel batching factor (0 when no
// syscall was made).
func (s SyscallStats) DatagramsPerSyscall() float64 {
	calls := s.Syscalls()
	if calls == 0 {
		return 0
	}
	return float64(s.SentDatagrams+s.RecvDatagrams) / float64(calls)
}

// syscallCounters is the fabric-owned mutable form of SyscallStats. With
// one datagram per syscall the syscall counts follow from the datagram
// counts: a write syscall either sent its datagram or failed it.
type syscallCounters struct {
	sentDgrams, recvDgrams, sendErrors atomic.Uint64
}

func (c *syscallCounters) snapshot() SyscallStats {
	sent, recv, errs := c.sentDgrams.Load(), c.recvDgrams.Load(), c.sendErrors.Load()
	return SyscallStats{
		SendFallback:  sent + errs,
		RecvFallback:  recv,
		SentDatagrams: sent,
		RecvDatagrams: recv,
		SendErrors:    errs,
	}
}

// writeDatagram sends one wire datagram to dst with one syscall, counting
// it as sent or failed.
func writeDatagram(conn *net.UDPConn, stats *syscallCounters, dst *net.UDPAddr, d []byte) error {
	if _, err := conn.WriteToUDP(d, dst); err != nil {
		stats.sendErrors.Add(1)
		return err
	}
	stats.sentDgrams.Add(1)
	return nil
}

// readBufPool recycles maxUDPPayload-sized datagram read buffers across
// serve readers, RecvBatch calls and fabric generations, so neither a
// reader-pool spin-up nor a steady-state receive allocates buffer memory.
var readBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, maxUDPPayload)
		return &b
	},
}

// getReadBuf takes a full-capacity read buffer from the pool.
func getReadBuf() []byte { return *readBufPool.Get().(*[]byte) }

// putReadBuf returns a read buffer to the pool at its full capacity.
func putReadBuf(b []byte) {
	b = b[:cap(b)]
	readBufPool.Put(&b)
}

// appendBatchFrame appends one batch frame carrying pkts to dst.
func appendBatchFrame(dst []byte, id byte, pkts [][]byte) []byte {
	dst = append(dst, BatchFrameID, id, 0, 0)
	binary.BigEndian.PutUint16(dst[len(dst)-2:], uint16(len(pkts)))
	for _, pkt := range pkts {
		var l [2]byte
		binary.BigEndian.PutUint16(l[:], uint16(len(pkt)))
		dst = append(dst, l[:]...)
		dst = append(dst, pkt...)
	}
	return dst
}

// splitBatchFrame parses a batch frame, appending packet slices (aliasing
// frame) onto into[:0].
func splitBatchFrame(frame []byte, into [][]byte) (id byte, pkts [][]byte, err error) {
	if len(frame) < batchFrameHdr || frame[0] != BatchFrameID {
		return 0, nil, fmt.Errorf("transport: bad batch frame header")
	}
	id = frame[1]
	count := int(binary.BigEndian.Uint16(frame[2:]))
	pkts = into[:0]
	off := batchFrameHdr
	for i := 0; i < count; i++ {
		if off+2 > len(frame) {
			return 0, nil, fmt.Errorf("transport: batch frame truncated at packet %d", i)
		}
		l := int(binary.BigEndian.Uint16(frame[off:]))
		off += 2
		if off+l > len(frame) {
			return 0, nil, fmt.Errorf("transport: batch frame packet %d exceeds datagram", i)
		}
		pkts = append(pkts, frame[off:off+l])
		off += l
	}
	if off != len(frame) {
		return 0, nil, fmt.Errorf("transport: %d trailing bytes after batch frame", len(frame)-off)
	}
	return id, pkts, nil
}

// sendScratch is a sending context's reusable datagram-assembly arena: the
// coalesced wire datagrams are materialized here, so a steady-state send
// allocates nothing.
type sendScratch struct {
	arena  []byte
	spans  []dgramSpan
	dgrams [][]byte
}

// dgramSpan is one assembled datagram's [off,end) range in the arena —
// offsets, not slices, because the arena may reallocate while growing.
type dgramSpan struct{ off, end int }

// gatherCoalesced assembles the wire datagrams carrying pkts into sc and
// returns the datagram vector (valid until the next call): a batch frame
// per greedy ≤ maxUDPPayload group, a lone packet as a single frame —
// [id payload] when frameSingle is set (uplink), raw otherwise (downlink).
// An oversized single packet (> maxUDPPayload) is still emitted as its own
// datagram so the send path can fail it loudly instead of dropping it.
func gatherCoalesced(sc *sendScratch, id byte, pkts [][]byte, frameSingle bool) [][]byte {
	sc.arena = sc.arena[:0]
	sc.spans = sc.spans[:0]
	for len(pkts) > 0 {
		// Greedy split: take the longest prefix that fits one datagram.
		k := 0
		size := batchFrameHdr
		for k < len(pkts) && size+2+len(pkts[k]) <= maxUDPPayload {
			size += 2 + len(pkts[k])
			k++
		}
		start := len(sc.arena)
		if k <= 1 {
			// A single packet (or one too large to share a frame) rides
			// alone: framed on the uplink, raw on the downlink.
			if frameSingle {
				sc.arena = append(sc.arena, id)
			}
			sc.arena = append(sc.arena, pkts[0]...)
			pkts = pkts[1:]
		} else {
			sc.arena = appendBatchFrame(sc.arena, id, pkts[:k])
			pkts = pkts[k:]
		}
		sc.spans = append(sc.spans, dgramSpan{start, len(sc.arena)})
	}
	sc.dgrams = sc.dgrams[:0]
	for _, s := range sc.spans {
		sc.dgrams = append(sc.dgrams, sc.arena[s.off:s.end])
	}
	return sc.dgrams
}

// writeCoalesced coalesces pkts into wire datagrams and writes them to dst,
// one syscall per datagram. Every datagram is attempted even after a
// failure (an oversized packet must not sink the rest of the vector);
// failures are counted in SendErrors and the first one is returned.
func writeCoalesced(conn *net.UDPConn, stats *syscallCounters, dst *net.UDPAddr, id byte, pkts [][]byte, frameSingle bool, sc *sendScratch) error {
	var firstErr error
	for i, d := range gatherCoalesced(sc, id, pkts, frameSingle) {
		if err := writeDatagram(conn, stats, dst, d); err != nil && firstErr == nil {
			firstErr = err
		}
		sc.dgrams[i] = nil
	}
	return firstErr
}

// ServeConn drains a switch-side UDP socket with a pool of reader
// goroutines (one per CPU, capped at 8), each owning a pooled read buffer,
// a delivery list and a datagram-assembly arena — the serve loop allocates
// nothing per datagram in steady state. Datagrams are framed either
// [workerID(1) payload] or as batch frames (BatchFrameID); the sender's
// address is learned as that worker's return path, and handler deliveries
// are coalesced per destination into batch-framed datagrams (single
// deliveries are written raw), broadcasts going to every learned address.
// Frames carrying ObserverID are handled out-of-band (see ObserverID).
// Destination addresses are snapshotted under the lock but written outside
// it, so replies from different readers (and shards) proceed in parallel.
//
// ServeConn blocks until the socket is closed (returning nil) and errors
// immediately on a worker count the one-byte frame cannot address;
// transient read errors are skipped. It is the shared serve loop of the
// UDP fabric and the fpisa-switch daemon. Callers that also need the
// switch-originated Push downlink (aggregation-tree leaves fanning parent
// results down outside a handler invocation) build a UDPServer instead —
// ServeConn is NewUDPServer + Serve.
func ServeConn(conn *net.UDPConn, workers int, handler BatchHandler) error {
	srv, err := NewUDPServer(conn, workers)
	if err != nil {
		return err
	}
	return srv.Serve(handler)
}

// UDPServer is the switch side of the UDP fabric as a handle: Serve runs
// the reader pool over the socket, and Push writes switch-ORIGINATED
// deliveries to the learned worker return paths outside any handler
// invocation — the Pusher a tree leaf hands its uplink so a parent's
// RESULT can fan down to local workers the moment it arrives, instead of
// waiting for their next retransmit to replay it.
type UDPServer struct {
	conn    *net.UDPConn
	workers int
	stats   *syscallCounters

	mu    sync.Mutex // guards addrs
	addrs []*net.UDPAddr

	// pushMu serializes Push calls so the scratch (groups, address
	// snapshot, assembly arena) has one owner; the reader pool's own
	// deliveries do not go through it.
	pushMu sync.Mutex
	groups destGroups
	dst    []*net.UDPAddr
	sc     sendScratch
}

// NewUDPServer wraps a bound switch socket. The caller owns conn; closing
// it terminates Serve.
func NewUDPServer(conn *net.UDPConn, workers int) (*UDPServer, error) {
	if workers < 1 || workers > MaxWorkers {
		return nil, fmt.Errorf("transport: %d workers outside the 1..%d the one-byte frame addresses (0x%02x and 0x%02x are reserved)",
			workers, MaxWorkers, BatchFrameID, ObserverID)
	}
	s := &UDPServer{
		conn:    conn,
		workers: workers,
		stats:   &syscallCounters{},
		addrs:   make([]*net.UDPAddr, workers),
		dst:     make([]*net.UDPAddr, workers),
	}
	s.groups.init(workers)
	return s, nil
}

// SyscallStats snapshots the server's wire syscall counters (including
// the SendErrors drop counter for the fire-and-forget downlink).
func (s *UDPServer) SyscallStats() SyscallStats { return s.stats.snapshot() }

// Serve blocks draining the socket with the reader pool until the socket
// is closed (returning nil); see ServeConn for the frame semantics.
func (s *UDPServer) Serve(handler BatchHandler) error {
	if handler == nil {
		return fmt.Errorf("transport: nil handler")
	}
	readers := runtime.GOMAXPROCS(0)
	if readers > 8 {
		readers = 8
	}
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			serveReader(s, handler)
		}()
	}
	wg.Wait()
	return nil
}

// Push implements Pusher: it routes switch-originated deliveries to the
// worker return paths learned by the serve loop, coalescing per
// destination exactly like handler deliveries. Workers whose address is
// not yet learned (they never sent a datagram) are skipped — the result
// cache replays the packet when they do.
func (s *UDPServer) Push(ds []Delivery) error {
	if len(ds) == 0 {
		return nil
	}
	s.pushMu.Lock()
	defer s.pushMu.Unlock()
	return s.writeDeliveries(ds, &s.groups, s.dst, &s.sc)
}

// writeDeliveries routes ds: grouped per destination worker, coalesced
// into batch frames (singles written raw), written outside the address
// lock to the learned return paths. Failed datagrams are counted
// (SendErrors), not silently dropped; the first failure is returned.
func (s *UDPServer) writeDeliveries(ds []Delivery, groups *destGroups, dst []*net.UDPAddr, sc *sendScratch) error {
	for _, d := range ds {
		if d.Broadcast {
			for w := 0; w < s.workers; w++ {
				groups.route(w, d.Packet)
			}
			continue
		}
		if d.Worker >= 0 && d.Worker < s.workers {
			groups.route(d.Worker, d.Packet)
		}
	}
	s.mu.Lock()
	for _, w := range groups.touched {
		dst[w] = s.addrs[w]
	}
	s.mu.Unlock()
	var firstErr error
	for _, w := range groups.touched {
		if dst[w] == nil {
			continue
		}
		if err := writeCoalesced(s.conn, s.stats, dst[w], 0, groups.perDst[w], false, sc); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	groups.reset()
	return firstErr
}

// serveState is one reader goroutine's reusable scratch.
type serveState struct {
	split  [][]byte       // batch-frame packet slices (aliasing the read buffer)
	one    [1][]byte      // single-packet vector (aliasing the read buffer)
	dl     DeliveryList   // handler deliveries for one datagram
	groups destGroups     // delivery packets grouped per destination worker
	dst    []*net.UDPAddr // destination snapshot, filled under the lock
	sc     sendScratch    // datagram-assembly arena
}

func serveReader(s *UDPServer, handler BatchHandler) {
	st := &serveState{dst: make([]*net.UDPAddr, s.workers)}
	st.groups.init(s.workers)
	buf := getReadBuf()
	defer putReadBuf(buf)
	for {
		n, src, err := s.conn.ReadFromUDP(buf)
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return
			}
			// Transient read errors (ICMP-induced, ENOBUFS, stray
			// deadlines on a shared conn) must not spin the reader pool
			// at full speed; back off briefly and retry.
			time.Sleep(time.Millisecond)
			continue
		}
		s.stats.recvDgrams.Add(1)
		if n < 1 || src == nil {
			continue
		}
		dgram := buf[:n]
		st.dl.Reset()
		// The downlink is fire-and-forget: write failures below are
		// counted in SendErrors, and the workers' retransmits recover.
		switch dgram[0] {
		case ObserverID:
			// Out-of-band observer: replies go to the sender only, and its
			// address never becomes a worker return path.
			st.one[0] = dgram[1:]
			handler(ObserverWorker, st.one[:], &st.dl)
			for _, d := range st.dl.Deliveries() {
				_ = writeDatagram(s.conn, s.stats, src, d.Packet)
			}
			continue
		case BatchFrameID:
			id, pkts, err := splitBatchFrame(dgram, st.split)
			st.split = pkts[:0]
			if err != nil || int(id) >= s.workers {
				continue
			}
			s.learn(int(id), src)
			handler(int(id), pkts, &st.dl)
		default:
			worker := int(dgram[0])
			if worker >= s.workers {
				continue
			}
			s.learn(worker, src)
			st.one[0] = dgram[1:]
			handler(worker, st.one[:], &st.dl)
		}
		if ds := st.dl.Deliveries(); len(ds) > 0 {
			_ = s.writeDeliveries(ds, &st.groups, st.dst, &st.sc)
		}
	}
}

// learn records src as worker's return path.
func (s *UDPServer) learn(worker int, src *net.UDPAddr) {
	s.mu.Lock()
	s.addrs[worker] = src
	s.mu.Unlock()
}

// UDP is a Fabric over real UDP sockets on loopback (or any network): one
// switch socket, one socket per worker. Worker identity is carried in a
// one-byte frame header so the switch can map datagrams to logical ports,
// like the ingress-port metadata a real switch derives from the wire.
// SendBatch coalesces the packet vector into batch-framed datagrams and
// RecvBatch drains the worker socket into the caller's reusable buffers,
// so a full protocol window crosses the wire in a handful of datagrams,
// one syscall each.
//
// The switch socket is drained by ServeConn's reader pool, so concurrent
// datagrams reach the handler in parallel — the handler must be
// concurrency-safe (see BatchHandler).
//
// A UDP fabric built by DialUDP has no switch side at all: it is the
// worker half dialed at a REMOTE switch socket (another process's
// fpisa-switch, or another switch in an aggregation tree), so swConn and
// srv are nil and Push reports that there is nothing to push through.
type UDP struct {
	workers  int
	stats    *syscallCounters
	swAddr   *net.UDPAddr
	swConn   *net.UDPConn
	srv      *UDPServer
	conns    []*net.UDPConn
	send     []sendState
	recv     []recvState
	closedMu sync.Mutex
	closed   bool
}

// sendState is one worker's reusable uplink sending context.
type sendState struct {
	mu sync.Mutex
	sc sendScratch
}

// recvState is one worker's reusable downlink receiving context plus the
// overflow queue for batch frames larger than the caller's buffer vector.
type recvState struct {
	mu      sync.Mutex
	split   [][]byte
	pending [][]byte // owned copies carried over to the next RecvBatch
}

// NewUDP starts a switch socket on 127.0.0.1 and one socket per worker.
func NewUDP(workers int, handler BatchHandler) (*UDP, error) {
	if handler == nil {
		return nil, fmt.Errorf("transport: nil handler")
	}
	sw, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, err
	}
	u, err := DialUDP(sw.LocalAddr().(*net.UDPAddr), workers)
	if err != nil {
		sw.Close()
		return nil, err
	}
	u.swConn = sw
	// workers was validated by DialUDP, so NewUDPServer cannot error here.
	u.srv, _ = NewUDPServer(sw, workers)
	// One counter set for the whole in-process fabric: the serve side's
	// syscalls are part of this fabric's wire cost.
	u.srv.stats = u.stats
	go func() { _ = u.srv.Serve(handler) }()
	return u, nil
}

// DialUDP builds the worker half of a UDP fabric against a switch socket
// served elsewhere — another process's fpisa-switch daemon, or the parent
// switch of an aggregation tree (the leaf dials its parent exactly like a
// worker). One local socket is bound per worker port; SendBatch writes to
// addr and RecvBatch drains the local sockets. Push errors: a dialed
// fabric has no switch side to originate deliveries from.
func DialUDP(addr *net.UDPAddr, workers int) (*UDP, error) {
	if workers < 1 {
		return nil, fmt.Errorf("transport: workers %d", workers)
	}
	if workers > MaxWorkers {
		return nil, fmt.Errorf("transport: %d workers exceed the %d the one-byte frame addresses (0x%02x and 0x%02x are reserved)",
			workers, MaxWorkers, BatchFrameID, ObserverID)
	}
	if addr == nil {
		return nil, fmt.Errorf("transport: nil switch address")
	}
	u := &UDP{
		workers: workers,
		stats:   &syscallCounters{},
		swAddr:  addr,
		conns:   make([]*net.UDPConn, workers),
		send:    make([]sendState, workers),
		recv:    make([]recvState, workers),
	}
	for i := range u.conns {
		c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			u.Close()
			return nil, err
		}
		u.conns[i] = c
	}
	return u, nil
}

// SwitchAddr returns the switch socket's address (the dialed address for a
// DialUDP fabric).
func (u *UDP) SwitchAddr() *net.UDPAddr { return u.swAddr }

// Backend names the fabric's datagram I/O path for run headers: always
// "per-datagram", one syscall per wire datagram.
func (u *UDP) Backend() string { return "per-datagram" }

// SyscallStats snapshots the fabric's wire syscall counters. For a NewUDP
// fabric the switch side's serve loop shares the counter set, so the
// snapshot covers both halves of every round trip.
func (u *UDP) SyscallStats() SyscallStats { return u.stats.snapshot() }

// SetBuffers best-effort grows every socket's kernel send and receive
// buffers to n bytes — loopback burst tests (and the UDP throughput
// benchmark) drop fewer datagrams with deeper socket queues. Errors are
// ignored; the kernel clamps to its rmem/wmem limits anyway.
func (u *UDP) SetBuffers(n int) {
	set := func(c *net.UDPConn) {
		if c != nil {
			_ = c.SetReadBuffer(n)
			_ = c.SetWriteBuffer(n)
		}
	}
	set(u.swConn)
	for _, c := range u.conns {
		set(c)
	}
}

// Push implements Pusher on the switch side of the fabric, delegating to
// the serve loop's learned return paths; a DialUDP fabric has no switch
// side and errors.
func (u *UDP) Push(ds []Delivery) error {
	if u.srv == nil {
		return fmt.Errorf("transport: Push on a dialed (switchless) UDP fabric")
	}
	return u.srv.Push(ds)
}

// SendBatch implements Fabric, coalescing the vector into batch-framed
// datagrams (a lone packet rides the legacy [workerID payload] frame).
// Failed datagrams are counted in SyscallStats.SendErrors as well as
// returned.
func (u *UDP) SendBatch(worker int, pkts [][]byte) error {
	if worker < 0 || worker >= u.workers {
		return fmt.Errorf("transport: worker %d out of range", worker)
	}
	if len(pkts) == 0 {
		return nil
	}
	st := &u.send[worker]
	st.mu.Lock()
	defer st.mu.Unlock()
	return writeCoalesced(u.conns[worker], u.stats, u.swAddr, byte(worker), pkts, true, &st.sc)
}

// RecvBatch implements Fabric: it blocks up to timeout for the next
// datagram that carries packets and returns them — a raw datagram is one
// packet, a batch frame is split into its packets. Packets beyond
// len(bufs) are carried over rather than dropped, and a call that finds
// carried-over packets returns those without reading the socket.
func (u *UDP) RecvBatch(worker int, bufs [][]byte, timeout time.Duration) (int, error) {
	if worker < 0 || worker >= u.workers {
		return 0, fmt.Errorf("transport: worker %d out of range", worker)
	}
	if len(bufs) == 0 {
		return 0, fmt.Errorf("transport: RecvBatch needs at least one buffer")
	}
	st := &u.recv[worker]
	st.mu.Lock()
	defer st.mu.Unlock()
	n := 0
	for n < len(bufs) && len(st.pending) > 0 {
		bufs[n] = append(bufs[n][:0], st.pending[0]...)
		st.pending = st.pending[1:]
		n++
	}
	if n > 0 {
		return n, nil
	}
	buf := getReadBuf()
	defer putReadBuf(buf)
	c := u.conns[worker]
	// The deadline is absolute, set ONCE: a stream of malformed or
	// zero-length datagrams must consume the caller's timeout, not restart
	// it — otherwise garbage traffic could stall the receiver (and its
	// retransmit machinery) indefinitely.
	if err := c.SetReadDeadline(time.Now().Add(timeout)); err != nil {
		return 0, err
	}
	for n == 0 {
		m, err := c.Read(buf)
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				return 0, ErrTimeout
			}
			return 0, err
		}
		u.stats.recvDgrams.Add(1)
		if m < 1 {
			continue
		}
		dgram := buf[:m]
		if dgram[0] != BatchFrameID {
			bufs[0] = append(bufs[0][:0], dgram...)
			return 1, nil
		}
		_, pkts, err := splitBatchFrame(dgram, st.split)
		st.split = pkts[:0]
		if err != nil {
			continue // malformed frame: drop, like a corrupt datagram
		}
		for _, pkt := range pkts {
			if n < len(bufs) {
				bufs[n] = append(bufs[n][:0], pkt...)
				n++
			} else {
				st.pending = append(st.pending, append([]byte(nil), pkt...))
			}
		}
	}
	return n, nil
}

// Close implements Fabric. Closing the switch socket terminates the
// ServeConn reader pool (a DialUDP fabric owns no switch socket and only
// closes its worker sockets).
func (u *UDP) Close() error {
	u.closedMu.Lock()
	defer u.closedMu.Unlock()
	if u.closed {
		return nil
	}
	u.closed = true
	if u.swConn != nil {
		u.swConn.Close()
	}
	for _, c := range u.conns {
		if c != nil {
			c.Close()
		}
	}
	return nil
}
