package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"sync"
	"time"

	"fpisa/internal/aggservice"
	"fpisa/internal/core"
	"fpisa/internal/pisa"
	"fpisa/internal/transport"
)

// Shared switch shape. ExtendedArch fits core.MaxModules = 3 FPISA modules
// per packet, so an f32 ADD is 21 bytes and a bf16 ADD 15 bytes. Full
// FPISA keeps dyadic-grid sums exact in the pipeline.
const (
	pool         = 16
	shards       = 2
	inputSets    = 4 // distinct input vectors cycled through the rounds
	drainTimeout = 500 * time.Millisecond
	vacantWait   = 2 * time.Second
)

var (
	mode    = core.ModeFull
	arch    = pisa.ExtendedArch()
	modules = core.MaxModules(pisa.ExtendedArch())
)

// allreduceSpec is one flat allreduce workload: jobs × workers lanes, each
// lane one Worker reducing its own vector per round.
type allreduceSpec struct {
	jobs, workers  int
	prof           core.NumericProfile
	weights        []int
	chunksPerRound int
}

// allreduceInputs are a seed's generated vectors and their references.
type allreduceInputs struct {
	spec allreduceSpec
	vecs [][][]float32 // [set][lane]; lane = job·workers + worker
	refs [][][]float32 // [set][job]
	sum  [sha256.Size]byte
}

func (s allreduceSpec) lanes() int { return s.jobs * s.workers }

// genAllreduce draws the inputs. The default f32 profile gets dyadic-grid
// gradients (k/1024, |k| ≤ 128), whose sums are exact in f32 and in full
// FPISA, so the reference is the host's exact sum. Other profiles get
// full-mantissa values spread over many binades, and the reference is a
// host core.Accumulator under the job's profile.
func genAllreduce(spec allreduceSpec, seed int64) (*allreduceInputs, error) {
	rng := rand.New(rand.NewSource(seed))
	n := spec.chunksPerRound * modules
	in := &allreduceInputs{spec: spec}
	h := sha256.New()
	for set := 0; set < inputSets; set++ {
		lanes := make([][]float32, spec.lanes())
		for l := range lanes {
			v := make([]float32, n)
			for i := range v {
				if spec.prof == core.DefaultProfile {
					v[i] = float32(rng.Intn(257)-128) / 1024
				} else {
					v[i] = float32(rng.NormFloat64() * math.Ldexp(1, rng.Intn(16)-8))
				}
			}
			lanes[l] = v
			hashFloats(h, v)
		}
		refs := make([][]float32, spec.jobs)
		for j := range refs {
			ref, err := reference(spec.prof, lanes[j*spec.workers:(j+1)*spec.workers])
			if err != nil {
				return nil, err
			}
			refs[j] = ref
		}
		in.vecs = append(in.vecs, lanes)
		in.refs = append(in.refs, refs)
	}
	copy(in.sum[:], h.Sum(nil))
	return in, nil
}

// reference is the host-side answer a job's workers must receive.
func reference(prof core.NumericProfile, vecs [][]float32) ([]float32, error) {
	n := len(vecs[0])
	out := make([]float32, n)
	if prof == core.DefaultProfile {
		for i := range out {
			var s float64
			for _, v := range vecs {
				s += float64(v[i])
			}
			out[i] = float32(s)
		}
		return out, nil
	}
	acc, err := core.NewAccumulator(prof.Config(mode), n)
	if err != nil {
		return nil, err
	}
	for _, v := range vecs {
		for i, x := range v {
			if err := acc.AddBits(i, prof.EncodeValue(x)); err != nil {
				return nil, err
			}
		}
	}
	for i := range out {
		out[i] = acc.ReadFloat32(i)
	}
	return out, nil
}

func hashFloats(h hash.Hash, v []float32) {
	var b [4]byte
	for _, x := range v {
		binary.LittleEndian.PutUint32(b[:], math.Float32bits(x))
		h.Write(b[:])
	}
}

// bitIdentical reports the first element where got and want differ in any
// bit.
func bitIdentical(got, want []float32) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d elements, reference has %d", len(got), len(want))
	}
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			return fmt.Errorf("element %d: got %g (%#08x), reference %g (%#08x)",
				i, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
	return nil
}

// allreduceEnv is one built flat allreduce: a switch on a UDP fabric with
// every job admitted, and one Worker per lane.
type allreduceEnv struct {
	in      *allreduceInputs
	sw      *aggservice.Switch
	fab     *transport.UDP
	workers []*aggservice.Worker
	lanes   []*laneTrace // nil entries when untraced
}

func (in *allreduceInputs) digest() []byte { return in.sum[:] }

func (in *allreduceInputs) setup(w *window) (env, error) {
	spec := in.spec
	profiles := make([]core.NumericProfile, spec.jobs)
	for j := range profiles {
		profiles[j] = spec.prof
	}
	cfg := aggservice.Config{
		Workers: spec.workers, Pool: pool, Modules: modules, Shards: shards, Jobs: spec.jobs,
		Weights: spec.weights, Profiles: profiles, DrainTimeout: drainTimeout,
		Mode: mode, Arch: arch,
	}
	sw, err := aggservice.NewSwitch(cfg)
	if err != nil {
		return nil, err
	}
	fab, err := transport.NewUDP(cfg.Ports(), w.handler("switch.handle", sw.HandleBatch))
	if err != nil {
		sw.Close()
		return nil, err
	}
	e := &allreduceEnv{in: in, sw: sw, fab: fab}
	for j := 0; j < spec.jobs; j++ {
		for k := 0; k < spec.workers; k++ {
			lane, f := w.laneFabric(fab)
			e.lanes = append(e.lanes, lane)
			e.workers = append(e.workers, aggservice.NewJobWorker(j, k, f, cfg))
		}
	}
	return e, nil
}

func (e *allreduceEnv) backend() string                  { return e.fab.Backend() }
func (e *allreduceEnv) syscalls() transport.SyscallStats { return e.fab.SyscallStats() }

func (e *allreduceEnv) close() {
	e.fab.Close()
	e.sw.Close()
}

// run repeats rounds until the deadline. A round is every lane's Reduce of
// one input set; between rounds each job is evicted and re-admitted,
// because a job incarnation serves one Reduce.
func (e *allreduceEnv) run(until time.Time, w *window) {
	spec := e.in.spec
	outs := make([][]float32, len(e.workers))
	errs := make([]error, len(e.workers))
	durs := make([]time.Duration, len(e.workers))
	start := time.Now()
	for r := 0; ; r++ {
		set := r % inputSets
		roundID, t0 := w.beginRound()
		var wg sync.WaitGroup
		for i, wk := range e.workers {
			wg.Add(1)
			go func(i int, wk *aggservice.Worker) {
				defer wg.Done()
				parent := w.beginCall(e.lanes[i], roundID, true)
				ts := time.Now()
				outs[i], errs[i] = wk.Reduce(e.in.vecs[set][i])
				durs[i] = time.Since(ts)
				w.endCall("worker.reduce", parent, roundID, wk.Job, ts)
			}(i, wk)
		}
		wg.Wait()
		w.endRound(roundID, t0)
		jobOK := make([]bool, spec.jobs)
		for j := range jobOK {
			jobOK[j] = true
		}
		for i, wk := range e.workers {
			w.laneCall(i, ms(durs[i]))
			ok := w.led.check("reduce", errs[i]) &&
				w.led.check("output", checkLane(outs[i], e.in.refs[set][wk.Job], r, wk))
			jobOK[wk.Job] = jobOK[wk.Job] && ok
		}
		for _, ok := range jobOK {
			if ok { // chunks count once every worker of the job has them
				w.chunks += int64(spec.chunksPerRound)
				w.rows += int64(spec.chunksPerRound * spec.workers * modules)
			}
		}
		w.addJobStats(e.sw, spec.jobs)
		if time.Now().After(until) {
			break
		}
		w.led.check("recycle", e.recycle())
	}
	w.elapsed = time.Since(start)
	for _, wk := range e.workers {
		w.shrinks += wk.BatchShrinks
		w.bpAcks += wk.BackpressureAcks
	}
	w.rejects += rejects(e.sw)
}

func checkLane(got, want []float32, round int, wk *aggservice.Worker) error {
	if err := bitIdentical(got, want); err != nil {
		return fmt.Errorf("round %d job %d worker %d: %w", round, wk.Job, wk.ID, err)
	}
	return nil
}

// recycle evicts every job and re-admits it as a fresh incarnation.
func (e *allreduceEnv) recycle() error {
	spec := e.in.spec
	for j := 0; j < spec.jobs; j++ {
		if err := evictAndWait(e.sw, j); err != nil {
			return err
		}
		weight := 1
		if j < len(spec.weights) {
			weight = spec.weights[j]
		}
		if err := e.sw.AdmitProfile(j, weight, spec.prof); err != nil {
			return fmt.Errorf("re-admit job %d: %w", j, err)
		}
	}
	for _, wk := range e.workers {
		wk.Epoch = e.sw.JobEpoch(wk.Job)
	}
	return nil
}

func (e *allreduceEnv) audit(w *window) {
	for j := 0; j < e.in.spec.jobs; j++ {
		w.led.check("audit", func() error {
			if err := evictAndWait(e.sw, j); err != nil {
				return err
			}
			return auditJob(e.sw, j, "switch")
		}())
	}
}

func (e *allreduceEnv) replay() replaySpec {
	profs := make(map[int]core.NumericProfile)
	for j := 0; j < e.in.spec.jobs; j++ {
		profs[j] = e.in.spec.prof
	}
	return replaySpec{profiles: profs, modules: modules, slots: 2 * pool}
}

// evictAndWait evicts job and waits, bounded, for its range to be released.
func evictAndWait(sw *aggservice.Switch, job int) error {
	if err := sw.Evict(job); err != nil {
		return fmt.Errorf("evict job %d: %w", job, err)
	}
	return waitVacant(sw, job)
}

func waitVacant(sw *aggservice.Switch, job int) error {
	deadline := time.Now().Add(vacantWait)
	for sw.JobPhaseOf(job) != aggservice.PhaseVacant {
		if time.Now().After(deadline) {
			return fmt.Errorf("job %d still %v after %v", job, sw.JobPhaseOf(job), vacantWait)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// auditJob checks an evicted job's ledgers through the public getters.
func auditJob(sw *aggservice.Switch, job int, where string) error {
	st, _ := sw.JobStats(job)
	if st.Phase != aggservice.PhaseVacant || st.Outstanding != 0 || st.CacheBytes != 0 {
		return fmt.Errorf("%s job %d after final evict: phase %v, outstanding %d, cache bytes %d",
			where, job, st.Phase, st.Outstanding, st.CacheBytes)
	}
	return nil
}

func rejects(sw *aggservice.Switch) uint64 {
	r := sw.Rejects()
	return r.Legacy + r.Malformed + r.BadJob + r.CrossJob + r.Draining + r.Backpressure + r.Stale + r.BadClass
}
