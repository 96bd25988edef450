package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"fpisa/internal/aggservice"
	"fpisa/internal/transport"
)

// maxSpans bounds the in-memory span log; spans past it are counted, not
// kept, so a fast workload cannot grow the traced run without limit.
const maxSpans = 1 << 21

// span is one timed call across a layer boundary. Spans of one lane's
// round share the round id; parent names the span that caused this one.
type span struct {
	id, parent, round uint64
	name              string
	start, end        int64 // ns since the tracer's epoch
	job               int32 // -1 when the call names no job
	chunk             int64 // first chunk (or tuple seq) the call carried; -1 when none
}

// tracer keeps the traced run's spans in memory until the run ends.
type tracer struct {
	t0      time.Time
	ids     atomic.Uint64
	mu      sync.Mutex
	spans   []span
	dropped atomic.Int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64    { return int64(time.Since(t.t0)) }
func (t *tracer) newID() uint64 { return t.ids.Add(1) }

func (t *tracer) reset() {
	t.mu.Lock()
	t.spans = t.spans[:0]
	t.mu.Unlock()
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	} else {
		t.dropped.Add(1)
	}
	t.mu.Unlock()
}

// spanSummary is one span name's totals.
type spanSummary struct {
	name         string
	count        int
	totalNs      int64
	selfNs       int64
	durNs        []int64
	firstStartNs int64
}

// summarize computes each span name's count, total and self time. Self
// time is a span's duration minus the part of it its children cover.
func (t *tracer) summarize() []*spanSummary {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[uint64][]int)
	for i, s := range t.spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	byName := map[string]*spanSummary{}
	var ivs [][2]int64
	for _, s := range t.spans {
		sum := byName[s.name]
		if sum == nil {
			sum = &spanSummary{name: s.name, firstStartNs: s.start}
			byName[s.name] = sum
		}
		d := s.end - s.start
		ivs = ivs[:0]
		for _, ci := range children[s.id] {
			c := t.spans[ci]
			lo, hi := max(c.start, s.start), min(c.end, s.end)
			if hi > lo {
				ivs = append(ivs, [2]int64{lo, hi})
			}
		}
		sum.count++
		sum.totalNs += d
		sum.selfNs += d - covered(ivs)
		sum.durNs = append(sum.durNs, d)
	}
	out := make([]*spanSummary, 0, len(byName))
	for _, s := range byName {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].firstStartNs < out[j].firstStartNs })
	return out
}

// covered is the length of the union of intervals.
func covered(ivs [][2]int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total, curLo, curHi int64
	open := false
	for _, iv := range ivs {
		switch {
		case !open:
			curLo, curHi, open = iv[0], iv[1], true
		case iv[0] > curHi:
			total += curHi - curLo
			curLo, curHi = iv[0], iv[1]
		case iv[1] > curHi:
			curHi = iv[1]
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// write stores every kept span as one tab-separated line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\tround\tname\tstart_ns\tend_ns\tjob\tchunk")
	t.mu.Lock()
	for _, s := range t.spans {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\t%d\t%d\n", s.id, s.parent, s.round, s.name, s.start, s.end, s.job, s.chunk)
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// msgHeader reads a v2 message's type, job and chunk (the tuple seq for
// MsgTuple/MsgTupleAck; the run start for MsgResultRun).
func msgHeader(msg []byte) (typ byte, job int, chunk uint32, ok bool) {
	if len(msg) < 8 || msg[0] != aggservice.WireVersion {
		return 0, 0, 0, false
	}
	return msg[1], int(binary.BigEndian.Uint16(msg[2:])), binary.BigEndian.Uint32(msg[4:]), true
}

// laneTrace is one load lane's view of its traffic, read off the lane's
// wrapped fabric: when each chunk (or tuple batch) was first sent, when its
// reply arrived, and how long the lane spent inside the fabric calls.
type laneTrace struct {
	tr      *tracer
	capture *captureLog

	round, parent atomic.Uint64 // current round id and worker-call span

	mu        sync.Mutex
	firstSend map[uint32]int64
	latNs     []int64

	sendCalls, sendMsgs, firstSends, resends atomic.Int64
	sendNs, recvNs                           atomic.Int64
}

func newLaneTrace(tr *tracer, capture *captureLog) *laneTrace {
	return &laneTrace{tr: tr, capture: capture, firstSend: map[uint32]int64{}}
}

// begin starts a new worker call (one Reduce or one tuple Send) under a
// round; chunk ids restart with every Reduce, so the open sends reset.
func (l *laneTrace) begin(round, parent uint64, resetChunks bool) {
	l.round.Store(round)
	l.parent.Store(parent)
	if resetChunks {
		l.mu.Lock()
		clear(l.firstSend)
		l.mu.Unlock()
	}
}

// tracedFabric wraps one lane's fabric: the worker-side transport layer.
type tracedFabric struct {
	transport.Fabric
	lane *laneTrace
}

func (f tracedFabric) SendBatch(worker int, pkts [][]byte) error {
	l := f.lane
	t0 := l.tr.now()
	err := f.Fabric.SendBatch(worker, pkts)
	t1 := l.tr.now()
	job, first := int32(-1), int64(-1)
	l.mu.Lock()
	for i, p := range pkts {
		typ, j, c, ok := msgHeader(p)
		if !ok || (typ != aggservice.MsgAdd && typ != aggservice.MsgTuple) {
			continue
		}
		if i == 0 {
			job, first = int32(j), int64(c)
		}
		if _, seen := l.firstSend[c]; seen {
			l.resends.Add(1)
			continue
		}
		l.firstSend[c] = t0
		l.firstSends.Add(1)
		l.capture.add(l.round.Load(), p)
	}
	l.mu.Unlock()
	l.sendCalls.Add(1)
	l.sendMsgs.Add(int64(len(pkts)))
	l.sendNs.Add(t1 - t0)
	l.tr.add(span{id: l.tr.newID(), parent: l.parent.Load(), round: l.round.Load(),
		name: "transport.send", start: t0, end: t1, job: job, chunk: first})
	return err
}

func (f tracedFabric) RecvBatch(worker int, bufs [][]byte, timeout time.Duration) (int, error) {
	l := f.lane
	t0 := l.tr.now()
	n, err := f.Fabric.RecvBatch(worker, bufs, timeout)
	t1 := l.tr.now()
	job, first := int32(-1), int64(-1)
	l.mu.Lock()
	for i, msg := range bufs[:n] {
		typ, j, c, ok := msgHeader(msg)
		if !ok {
			continue
		}
		if i == 0 {
			job, first = int32(j), int64(c)
		}
		switch typ {
		case aggservice.MsgResult, aggservice.MsgTupleAck:
			l.done(c, t1)
		case aggservice.MsgResultRun:
			if len(msg) >= 10 {
				for k := uint32(0); k < uint32(binary.BigEndian.Uint16(msg[8:])); k++ {
					l.done(c+k, t1)
				}
			}
		}
	}
	l.mu.Unlock()
	l.recvNs.Add(t1 - t0)
	l.tr.add(span{id: l.tr.newID(), parent: l.parent.Load(), round: l.round.Load(),
		name: "transport.recv", start: t0, end: t1, job: job, chunk: first})
	return n, err
}

// done records chunk c's latency from its first send. Caller holds l.mu.
func (l *laneTrace) done(c uint32, at int64) {
	if t, ok := l.firstSend[c]; ok && t >= 0 {
		l.latNs = append(l.latNs, at-t)
		l.firstSend[c] = -1 // completed; later replays are not new samples
	}
}

// handleStats counts one switch's handler calls.
type handleStats struct {
	calls, pkts, rows, deliveries, ns atomic.Int64
}

// tracedHandler wraps a switch's HandleBatch: the switch layer as the
// fabric's serve loop sees it.
func tracedHandler(tr *tracer, name string, h transport.BatchHandler, st *handleStats) transport.BatchHandler {
	return func(worker int, pkts [][]byte, out *transport.DeliveryList) {
		before := out.Len()
		t0 := tr.now()
		h(worker, pkts, out)
		t1 := tr.now()
		job, first := int32(-1), int64(-1)
		var rows int64
		for i, p := range pkts {
			typ, j, c, ok := msgHeader(p)
			if !ok {
				continue
			}
			if i == 0 {
				job, first = int32(j), int64(c)
			}
			switch typ {
			case aggservice.MsgAdd:
				rows += int64(modules)
			case aggservice.MsgTuple:
				if len(p) >= 12 {
					rows += int64(binary.BigEndian.Uint16(p[10:]))
				}
			}
		}
		st.calls.Add(1)
		st.pkts.Add(int64(len(pkts)))
		st.rows.Add(rows)
		st.deliveries.Add(int64(out.Len() - before))
		st.ns.Add(t1 - t0)
		tr.add(span{id: tr.newID(), name: name, start: t0, end: t1, job: job, chunk: first})
	}
}

// uplinkFabric wraps a leaf's uplink fabric (the tree layer's wire).
type uplinkFabric struct {
	transport.Fabric
	tr                *tracer
	sendCalls, sendNs atomic.Int64
}

func (f *uplinkFabric) SendBatch(worker int, pkts [][]byte) error {
	t0 := f.tr.now()
	err := f.Fabric.SendBatch(worker, pkts)
	t1 := f.tr.now()
	f.sendCalls.Add(1)
	f.sendNs.Add(t1 - t0)
	job, first := int32(-1), int64(-1)
	if len(pkts) > 0 {
		if _, j, c, ok := msgHeader(pkts[0]); ok {
			job, first = int32(j), int64(c)
		}
	}
	f.tr.add(span{id: f.tr.newID(), name: "uplink.send", start: t0, end: t1, job: job, chunk: first})
	return err
}

// captureLog keeps the first transmission of each ADD (or tuple batch) a
// traced run sent, for the core and pisa replays.
type captureLog struct {
	mu    sync.Mutex
	recs  []captured
	bytes int
}

// captureBytes bounds the copies a capture holds: tuple batches are up to
// 64 KB each.
const captureBytes = 8 << 20

type captured struct {
	round uint64
	msg   []byte
}

func (c *captureLog) add(round uint64, msg []byte) {
	if c == nil {
		return
	}
	c.mu.Lock()
	if len(c.recs) < replayLimit && c.bytes+len(msg) <= captureBytes {
		c.recs = append(c.recs, captured{round: round, msg: append([]byte(nil), msg...)})
		c.bytes += len(msg)
	}
	c.mu.Unlock()
}
