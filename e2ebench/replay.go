package main

import (
	"runtime"
	"time"

	"fpisa/internal/aggservice"
	"fpisa/internal/core"
)

// replayLimit caps the ADDs (or tuple batches) a traced run captures for
// the core and pisa replays, which keeps the replay within a few seconds.
const replayLimit = 100_000

// replayAdd is one aggregator operation of the captured stream: an ADD of
// one value per module into a slot, preceded by a ReadReset when the ADD
// binds the slot to a new chunk (as the switch does).
type replayAdd struct {
	job    int
	slot   int
	rebind bool
	vals   []float32
	round  uint64
}

// replayResult holds the core and pisa layer numbers.
type replayResult struct {
	adds                  int
	addNs, allocs, bytes  float64
	processNs             float64
	processed             int
	dropped, recirculated uint64
}

// plan turns the captured wire messages into aggregator operations.
func plan(caps []captured, spec replaySpec) []replayAdd {
	var ops []replayAdd
	type slotKey struct {
		job, slot int
	}
	bound := map[slotKey][2]uint64{} // (round, chunk) the slot holds
	for _, c := range caps {
		typ, job, chunk, ok := msgHeader(c.msg)
		if !ok {
			continue
		}
		switch {
		case typ == aggservice.MsgAdd && spec.groups == 0:
			prof := spec.profiles[job]
			vw := prof.ValueBytes()
			vals := make([]float32, spec.modules)
			if len(c.msg) < 9+vw*spec.modules {
				continue
			}
			for k := range vals {
				vals[k] = prof.GetValue(c.msg[9+vw*k:])
			}
			k := slotKey{job, int(chunk) % spec.slots}
			want := [2]uint64{c.round, uint64(chunk)}
			cur, seen := bound[k]
			ops = append(ops, replayAdd{job: job, slot: k.slot, rebind: !seen || cur != want, vals: vals, round: c.round})
			bound[k] = want
		case typ == aggservice.MsgTuple && spec.groups > 0:
			_, _, _, op, keys, vals, err := aggservice.DecodeTuples(c.msg)
			if err != nil || op != aggservice.OpQueryAgg {
				continue
			}
			for i, key := range keys {
				ops = append(ops, replayAdd{job: job, slot: int(key % uint32(spec.groups)), vals: vals[i : i+1], round: c.round})
			}
		}
		if len(ops) >= replayLimit {
			break
		}
	}
	return ops
}

// runReplay replays the traced run's captured stream twice. The first pass
// drives core.ProfileAggregator.Add/ReadReset with the run's profile,
// modules, slots and arch, untimed per call, for core.add_ns and the
// allocation counts. The second pass rebuilds the compiled path from its
// public parts (PipelineAggregator.Packet, then pisa.Switch.Process) and
// records a core.add span around each operation with a pisa.process child,
// so the pipeline's share of an ADD shows as self time. Model-path
// profiles (bf16) run ProfileAggregator.Add inside the span and the
// pipeline after it.
func runReplay(w *window, spec replaySpec) {
	ops := plan(w.capture.recs, spec)
	w.capture.recs = nil
	res := &w.replayRes
	res.adds = len(ops)
	if len(ops) == 0 {
		return
	}
	aggs := map[int]*core.ProfileAggregator{}
	for job, prof := range spec.profiles {
		pa, err := core.NewProfileAggregator(prof, mode, spec.modules, spec.slots, arch)
		if err != nil {
			w.led.check("replay", err)
			return
		}
		aggs[job] = pa
	}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for _, op := range ops {
		pa := aggs[op.job]
		if op.rebind {
			pa.ReadReset(op.slot) //nolint:errcheck // slots are in range by construction
		}
		pa.Add(op.slot, op.vals) //nolint:errcheck // as above
	}
	elapsed := time.Since(t0)
	runtime.ReadMemStats(&m1)
	n := float64(len(ops))
	res.addNs = float64(elapsed.Nanoseconds()) / n
	res.allocs = float64(m1.Mallocs-m0.Mallocs) / n
	res.bytes = float64(m1.TotalAlloc-m0.TotalAlloc) / n

	// Every job gets a pipeline. A job whose profile runs on the model
	// replays it after its core.add span instead of inside it: its ADDs
	// never reach the pipeline in the switch.
	pipes := map[int]*core.PipelineAggregator{}
	for job := range spec.profiles {
		pipe, err := core.NewPipelineAggregator(core.DefaultFP32(mode), spec.modules, spec.slots, arch)
		if err != nil {
			w.led.check("replay", err)
			return
		}
		pipes[job] = pipe
	}
	spans := make([]span, 0, 3*len(ops))
	var processNs int64
	process := func(pipe *core.PipelineAggregator, op byte, slot int, vals []float32, parent, round uint64) {
		pkt, err := pipe.Packet(op, uint32(slot), vals)
		if err != nil {
			return
		}
		t0 := w.tr.now()
		_, err = pipe.Switch().Process(1, pkt)
		t1 := w.tr.now()
		processNs += t1 - t0
		res.processed++
		spans = append(spans, span{id: w.tr.newID(), parent: parent, round: round, name: "pisa.process",
			start: t0, end: t1, job: -1, chunk: int64(slot)})
		if err != nil {
			w.led.check("replay", err)
		}
	}
	pipeline := func(op replayAdd, parent uint64) {
		if op.rebind {
			process(pipes[op.job], core.PktReadReset, op.slot, nil, parent, op.round)
		}
		process(pipes[op.job], core.PktAdd, op.slot, op.vals, parent, op.round)
	}
	for _, op := range ops {
		id := w.tr.newID()
		t0 := w.tr.now()
		compiled := aggs[op.job].Compiled()
		if compiled {
			pipeline(op, id)
		} else {
			pa := aggs[op.job]
			if op.rebind {
				pa.ReadReset(op.slot) //nolint:errcheck // slots are in range by construction
			}
			pa.Add(op.slot, op.vals) //nolint:errcheck // as above
		}
		spans = append(spans, span{id: id, round: op.round, name: "core.add",
			start: t0, end: w.tr.now(), job: int32(op.job), chunk: int64(op.slot)})
		if !compiled {
			pipeline(op, id)
		}
	}
	for _, sp := range spans {
		w.tr.add(sp)
	}
	if res.processed > 0 {
		res.processNs = float64(processNs) / float64(res.processed)
	}
	for _, pipe := range pipes {
		c := pipe.Switch().Counters()
		res.dropped += c.Dropped
		res.recirculated += c.Recirculated
	}
}
