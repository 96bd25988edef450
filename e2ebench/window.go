package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"fpisa/internal/aggservice"
	"fpisa/internal/core"
	"fpisa/internal/transport"
)

// env is one built instance of a workload: switches, fabrics and admitted
// jobs, ready for closed-loop load.
type env interface {
	backend() string
	// syscalls snapshots the wire syscall counters of every fabric.
	syscalls() transport.SyscallStats
	// run drives load until the deadline, checking every output.
	run(until time.Time, w *window)
	// audit evicts every job and checks the ledgers through public getters.
	audit(w *window)
	// replay names what the core and pisa replays of the captured stream use.
	replay() replaySpec
	close()
}

// ledger counts operations and failures. An operation is a Reduce or Send
// call, a drain, an output check, a recycle between rounds or an audit.
type ledger struct {
	attempted, failed atomic.Int64
	mu                sync.Mutex
	errs              []string
}

// check counts one operation and reports whether it succeeded.
func (l *ledger) check(op string, err error) bool {
	l.attempted.Add(1)
	if err == nil {
		return true
	}
	l.failed.Add(1)
	l.mu.Lock()
	if len(l.errs) < 8 {
		l.errs = append(l.errs, op+": "+err.Error())
	}
	l.mu.Unlock()
	return false
}

// window is one timed run of a workload and everything measured in it.
type window struct {
	tr      *tracer // nil in untraced windows
	led     *ledger
	capture *captureLog

	elapsed      time.Duration
	chunks, rows int64
	roundMs      []float64
	batchMs      [][]float64 // per lane
	drainMs      []float64

	lanes    []*laneTrace
	handlers map[string]*handleStats
	uplinks  []*uplinkFabric
	sys      transport.SyscallStats

	jobs                 aggservice.JobStats // summed over every incarnation
	rejects              uint64
	shrinks, bpAcks      uint64
	tupleSent, tupleRetx uint64
	uplinkRetx           uint64
	uplinkPendingEnd     int

	mallocs, allocBytes uint64
	gcCycles            uint32

	replayRes replayResult
}

func newWindow(traced bool, led *ledger) *window {
	w := &window{led: led, handlers: map[string]*handleStats{}}
	if traced {
		w.tr = newTracer()
		w.capture = &captureLog{}
	}
	return w
}

// handler wraps a switch's batch handler when the window is traced.
func (w *window) handler(name string, h transport.BatchHandler) transport.BatchHandler {
	if w.tr == nil {
		return h
	}
	st := w.handlers[name]
	if st == nil {
		st = &handleStats{}
		w.handlers[name] = st
	}
	return tracedHandler(w.tr, name, h, st)
}

// laneFabric gives a load lane its view of the shared fabric.
func (w *window) laneFabric(f transport.Fabric) (*laneTrace, transport.Fabric) {
	if w.tr == nil {
		return nil, f
	}
	l := newLaneTrace(w.tr, w.capture)
	w.lanes = append(w.lanes, l)
	return l, tracedFabric{Fabric: f, lane: l}
}

// uplinkFabric wraps a leaf's uplink fabric when the window is traced.
func (w *window) uplinkFabric(f transport.Fabric) transport.Fabric {
	if w.tr == nil {
		return f
	}
	u := &uplinkFabric{Fabric: f, tr: w.tr}
	w.uplinks = append(w.uplinks, u)
	return u
}

// laneCall records one blocking call of a lane (a Reduce or a Send).
func (w *window) laneCall(lane int, ms float64) {
	for len(w.batchMs) <= lane {
		w.batchMs = append(w.batchMs, nil)
	}
	w.batchMs[lane] = append(w.batchMs[lane], ms)
}

// slowestLane is the highest per-lane q-quantile of the calls' times: the
// lane that sets the round time. Lanes of different weights (bf16) would
// make one pooled distribution bimodal.
func (w *window) slowestLane(q float64) (v float64, n int) {
	for _, calls := range w.batchMs {
		v = max(v, quantile(calls, q))
		n += len(calls)
	}
	return v, n
}

// beginRound opens a round: one closed-loop repetition across every lane.
func (w *window) beginRound() (uint64, time.Time) {
	if w.tr == nil {
		return 0, time.Now()
	}
	return w.tr.newID(), time.Now()
}

func (w *window) endRound(id uint64, start time.Time) {
	d := time.Since(start)
	w.roundMs = append(w.roundMs, ms(d))
	if w.tr != nil {
		end := w.tr.now()
		w.tr.add(span{id: id, round: id, name: "round", start: end - int64(d), end: end, job: -1, chunk: -1})
	}
}

// beginCall opens a lane's worker call under a round and returns its span id.
func (w *window) beginCall(l *laneTrace, round uint64, resetChunks bool) uint64 {
	if l == nil {
		return 0
	}
	id := w.tr.newID()
	l.begin(round, id, resetChunks)
	return id
}

// endCall records a call that started at start as a child of its round;
// id 0 (a call not opened by beginCall) gets a fresh span id.
func (w *window) endCall(name string, id, round uint64, job int, start time.Time) {
	if w.tr == nil {
		return
	}
	if id == 0 {
		id = w.tr.newID()
	}
	end := w.tr.now()
	w.tr.add(span{id: id, parent: round, round: round, name: name,
		start: end - int64(time.Since(start)), end: end, job: int32(job), chunk: -1})
}

// addJobStats folds the live incarnations' counters into the window's
// totals; call it before an evict resets them.
func (w *window) addJobStats(sw *aggservice.Switch, jobs int) {
	for j := 0; j < jobs; j++ {
		st, ok := sw.JobStats(j)
		if !ok {
			continue
		}
		w.jobs.Adds += st.Adds
		w.jobs.Retransmits += st.Retransmits
		w.jobs.Completions += st.Completions
		w.jobs.QuotaDrops += st.QuotaDrops
		w.jobs.SchedDefers += st.SchedDefers
		w.jobs.Coalesced += st.Coalesced
	}
}

// replaySpec is what the core/pisa replay needs to rebuild the run's
// aggregators: each job's profile, modules and slots (mode and arch are
// the benchmark's).
type replaySpec struct {
	profiles map[int]core.NumericProfile
	modules  int
	slots    int
	// groups > 0 replays tuple batches of the group-aggregation op, one
	// row per add, into a bank of that many groups.
	groups int
}

// measure runs one window: setups, the timed load, the audit. It returns
// the UDP backend the fabrics resolved to.
func measure(in inputs, until func() time.Time, w *window, setupS *[]float64, setups int) (string, error) {
	var e env
	for i := 0; i < setups; i++ {
		t0 := time.Now()
		var err error
		if e, err = in.setup(w); err != nil {
			return "", fmt.Errorf("setup: %w", err)
		}
		*setupS = append(*setupS, time.Since(t0).Seconds())
		if i < setups-1 {
			e.close()
			// A torn-down setup's wrappers must not count toward the run.
			w.lanes, w.uplinks = nil, nil
			for k := range w.handlers {
				delete(w.handlers, k)
			}
		}
	}
	defer e.close()
	if w.tr != nil {
		w.tr.reset() // setup traffic (admission) is not part of the run
	}
	sys0 := e.syscalls()
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	e.run(until(), w)
	runtime.ReadMemStats(&m1)
	w.mallocs = m1.Mallocs - m0.Mallocs
	w.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	w.gcCycles = m1.NumGC - m0.NumGC
	w.sys = diffSyscalls(e.syscalls(), sys0)
	e.audit(w)
	if w.tr != nil {
		runReplay(w, e.replay())
	}
	return e.backend(), nil
}

func diffSyscalls(a, b transport.SyscallStats) transport.SyscallStats {
	return transport.SyscallStats{
		Sendmmsg: a.Sendmmsg - b.Sendmmsg, Recvmmsg: a.Recvmmsg - b.Recvmmsg,
		SendFallback: a.SendFallback - b.SendFallback, RecvFallback: a.RecvFallback - b.RecvFallback,
		SentDatagrams: a.SentDatagrams - b.SentDatagrams, RecvDatagrams: a.RecvDatagrams - b.RecvDatagrams,
		SendErrors: a.SendErrors - b.SendErrors,
	}
}

func addSyscalls(a, b transport.SyscallStats) transport.SyscallStats {
	return transport.SyscallStats{
		Sendmmsg: a.Sendmmsg + b.Sendmmsg, Recvmmsg: a.Recvmmsg + b.Recvmmsg,
		SendFallback: a.SendFallback + b.SendFallback, RecvFallback: a.RecvFallback + b.RecvFallback,
		SentDatagrams: a.SentDatagrams + b.SentDatagrams, RecvDatagrams: a.RecvDatagrams + b.RecvDatagrams,
		SendErrors: a.SendErrors + b.SendErrors,
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
