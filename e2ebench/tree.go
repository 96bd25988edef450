package main

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"fpisa/internal/aggservice"
	"fpisa/internal/core"
	"fpisa/internal/transport"
)

const (
	treeLeaves = 2
	treeJob    = 0
	// treeChunksPerSecond sizes the one long Reduce so that it lasts about
	// the requested run length at the tree's current speed on loopback.
	treeChunksPerSecond = 12000
	// treeGuard bounds the Reduce: past it the leaves evict the job and the
	// workers fail with ErrJobEvicted instead of hanging the run.
	treeGuard = 120 * time.Second
)

// treeInputs are one dyadic-grid vector per leaf worker and their exact sum.
type treeInputs struct {
	vecs [][]float32
	ref  []float32
	sum  [sha256.Size]byte
}

func genTree(seed int64, seconds float64) (*treeInputs, error) {
	rng := rand.New(rand.NewSource(seed))
	n := int(seconds*treeChunksPerSecond) * modules
	in := &treeInputs{vecs: make([][]float32, treeLeaves)}
	h := sha256.New()
	for l := range in.vecs {
		v := make([]float32, n)
		for i := range v {
			v[i] = float32(rng.Intn(257)-128) / 1024
		}
		in.vecs[l] = v
		hashFloats(h, v)
	}
	ref, err := reference(core.DefaultProfile, in.vecs)
	if err != nil {
		return nil, err
	}
	in.ref = ref
	copy(in.sum[:], h.Sum(nil))
	return in, nil
}

// treeEnv is a 2-level tree: two leaf switches with one worker each, whose
// completed chunks climb as ADDs to one spine over UDP.
type treeEnv struct {
	in        *treeInputs
	spine     *aggservice.Switch
	spineConn *net.UDPConn
	spineSrv  *transport.UDPServer
	serving   sync.WaitGroup
	leaves    []*aggservice.Switch
	leafFabs  []*transport.UDP
	upFabs    []*transport.UDP
	workers   []*aggservice.Worker
	lanes     []*laneTrace
}

func (in *treeInputs) digest() []byte { return in.sum[:] }

func (in *treeInputs) setup(w *window) (env, error) {
	leafCfg := aggservice.Config{
		Workers: 1, Pool: pool, Modules: modules, Shards: shards,
		DrainTimeout: drainTimeout, Mode: mode, Arch: arch,
	}
	spineCfg := leafCfg
	spineCfg.Workers = treeLeaves
	spineCfg.Dynamic = true // leaves negotiate their admission up over the wire
	e := &treeEnv{in: in}
	var err error
	if e.spine, err = aggservice.NewSwitch(spineCfg); err != nil {
		return nil, err
	}
	if e.spineConn, err = net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)}); err != nil {
		e.close()
		return nil, err
	}
	if e.spineSrv, err = transport.NewUDPServer(e.spineConn, spineCfg.Ports()); err != nil {
		e.close()
		return nil, err
	}
	spineHandler := w.handler("switch.spine_handle", e.spine.HandleBatch)
	e.serving.Add(1)
	go func() {
		defer e.serving.Done()
		_ = e.spineSrv.Serve(spineHandler)
	}()
	spineAddr := e.spineConn.LocalAddr().(*net.UDPAddr)

	e.leaves = make([]*aggservice.Switch, treeLeaves)
	for i := 0; i < treeLeaves; i++ {
		// The leaf's fabric serves before the leaf exists: the leaf needs
		// the fabric as its downlink Pusher. Until it is published,
		// arriving datagrams are dropped like on an unconfigured switch.
		var leafSw atomic.Pointer[aggservice.Switch]
		leafHandler := w.handler("switch.leaf_handle", func(wk int, pkts [][]byte, out *transport.DeliveryList) {
			if sw := leafSw.Load(); sw != nil {
				sw.HandleBatch(wk, pkts, out)
			}
		})
		fab, err := transport.NewUDP(leafCfg.Ports(), leafHandler)
		if err != nil {
			e.close()
			return nil, err
		}
		e.leafFabs = append(e.leafFabs, fab)
		up, err := transport.DialUDP(spineAddr, treeLeaves)
		if err != nil {
			e.close()
			return nil, err
		}
		e.upFabs = append(e.upFabs, up)
		cfg := leafCfg
		cfg.Uplink = &aggservice.UplinkConfig{
			Fabric: w.uplinkFabric(up), LeafID: i, Leaves: treeLeaves,
			Control: aggservice.WireControl{Addr: spineAddr}, Push: fab,
		}
		leaf, err := aggservice.NewSwitch(cfg)
		if err != nil {
			e.close()
			return nil, err
		}
		e.leaves[i] = leaf
		leafSw.Store(leaf)
		lane, f := w.laneFabric(fab)
		e.lanes = append(e.lanes, lane)
		e.workers = append(e.workers, aggservice.NewJobWorker(treeJob, 0, f, leafCfg))
	}
	return e, nil
}

func (e *treeEnv) backend() string { return e.leafFabs[0].Backend() }

func (e *treeEnv) syscalls() transport.SyscallStats {
	s := e.spineSrv.SyscallStats()
	for _, f := range append(append([]*transport.UDP(nil), e.leafFabs...), e.upFabs...) {
		s = addSyscalls(s, f.SyscallStats())
	}
	return s
}

func (e *treeEnv) close() {
	for _, l := range e.leaves {
		if l != nil {
			l.Close()
		}
	}
	for _, f := range e.upFabs {
		f.Close()
	}
	for _, f := range e.leafFabs {
		f.Close()
	}
	if e.spine != nil {
		e.spine.Close()
	}
	if e.spineConn != nil {
		e.spineConn.Close()
	}
	e.serving.Wait()
}

// run is one incarnation with one long Reduce per leaf worker: recycling a
// tree (evict, then re-admit at the leaves) is not safe to repeat back to
// back at this commit, and the benchmark adds no pause to hide that.
func (e *treeEnv) run(_ time.Time, w *window) {
	guard := time.AfterFunc(treeGuard, func() {
		for _, l := range e.leaves {
			_ = l.Evict(treeJob)
		}
	})
	outs := make([][]float32, len(e.workers))
	errs := make([]error, len(e.workers))
	durs := make([]time.Duration, len(e.workers))
	start := time.Now()
	roundID, t0 := w.beginRound()
	var wg sync.WaitGroup
	for i, wk := range e.workers {
		wg.Add(1)
		go func(i int, wk *aggservice.Worker) {
			defer wg.Done()
			parent := w.beginCall(e.lanes[i], roundID, true)
			ts := time.Now()
			outs[i], errs[i] = wk.Reduce(e.in.vecs[i])
			durs[i] = time.Since(ts)
			w.endCall("worker.reduce", parent, roundID, treeJob, ts)
		}(i, wk)
	}
	wg.Wait()
	w.endRound(roundID, t0)
	w.elapsed = time.Since(start)
	guard.Stop()
	ok := true
	for i, wk := range e.workers {
		w.laneCall(i, ms(durs[i]))
		if !w.led.check("reduce", errs[i]) {
			ok = false
			continue
		}
		if !w.led.check("output", bitIdentical(outs[i], e.in.ref)) {
			ok = false
		}
		w.shrinks += wk.BatchShrinks
		w.bpAcks += wk.BackpressureAcks
	}
	if ok {
		chunks := int64(len(e.in.ref) / modules)
		w.chunks += chunks
		w.rows += chunks * int64(treeLeaves*modules)
	}
	for _, l := range e.leaves {
		w.addJobStats(l, 1)
		w.uplinkRetx += l.UplinkRetransmits(treeJob)
		w.uplinkPendingEnd += l.UplinkPending(treeJob)
		w.rejects += rejects(l)
	}
	w.rejects += rejects(e.spine)
}

// audit evicts level by level, leaves first (an idle tree does not
// propagate a spine eviction down), then checks every level's ledgers and
// that no leaf still owes the spine an uplink ADD.
func (e *treeEnv) audit(w *window) {
	for i, l := range e.leaves {
		w.led.check("audit", func() error {
			if err := evictAndWait(l, treeJob); err != nil {
				return fmt.Errorf("leaf %d: %w", i, err)
			}
			if p := l.UplinkPending(treeJob); p != 0 {
				return fmt.Errorf("leaf %d still owes the spine %d uplink ADDs", i, p)
			}
			return auditJob(l, treeJob, fmt.Sprintf("leaf %d", i))
		}())
	}
	w.led.check("audit", func() error {
		if err := evictAndWait(e.spine, treeJob); err != nil {
			return fmt.Errorf("spine: %w", err)
		}
		return auditJob(e.spine, treeJob, "spine")
	}())
}

func (e *treeEnv) replay() replaySpec {
	return replaySpec{profiles: map[int]core.NumericProfile{treeJob: core.DefaultProfile},
		modules: modules, slots: 2 * pool}
}
