package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"sync"
	"time"

	"fpisa/internal/aggservice"
	"fpisa/internal/core"
	"fpisa/internal/query"
	"fpisa/internal/transport"
)

const (
	queryLanes      = 2
	queryJob        = 0
	observerTimeout = time.Second
)

// queryClass provisions one query tenant for all five Table-2 queries: the
// largest pruning register file (top-10) and group bank (1024 groups);
// read-and-reset drains recycle both between queries.
var queryClass = aggservice.AdmitClass{Class: aggservice.ClassQuery, TopN: 10, Groups: 1024}

// tupleBatch is one wire batch: at most MaxTuplesPerBatch rows, so one
// TupleClient.Send call is one MsgTuple datagram.
type tupleBatch struct {
	keys []uint32
	vals []float32
	rows []query.Row
}

// queryCase is one Table-2 query with its lanes' batches and references.
type queryCase struct {
	q       query.Query
	op      aggservice.TupleOp
	lanes   [queryLanes][]tupleBatch
	ref     query.Result // exact float64 answer over all rows
	planned query.Result // the engine's software switch plan (aggregations)
	rows    int
}

type queryInputs struct {
	cases []queryCase
	sum   [sha256.Size]byte
}

// genQuery builds the five queries over a seeded Table-2 dataset split
// across the two lanes.
func genQuery(seed int64) (*queryInputs, error) {
	eng := query.NewEngine(query.Generate(query.DefaultScale(), queryLanes, seed))
	in := &queryInputs{}
	h := sha256.New()
	var b [8]byte
	for _, q := range query.Queries() {
		c := queryCase{q: q, op: aggservice.OpQueryAgg, ref: eng.Reference(q)}
		if q.TopN > 0 {
			c.op = aggservice.OpQueryTopN
		} else if q.Desc.Method == query.Pruning {
			c.op = aggservice.OpQueryGroupMax
		}
		if c.op == aggservice.OpQueryAgg {
			res, _, err := eng.RunSwitch(q)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", q.Desc.Name, err)
			}
			c.planned = res
		}
		for l := 0; l < queryLanes; l++ {
			rows := eng.PartRows(q, l)
			c.rows += len(rows)
			for base := 0; base < len(rows); base += aggservice.MaxTuplesPerBatch {
				part := rows[base:min(len(rows), base+aggservice.MaxTuplesPerBatch)]
				tb := tupleBatch{keys: make([]uint32, len(part)), vals: make([]float32, len(part)), rows: part}
				for i, r := range part {
					tb.keys[i], tb.vals[i] = r.Key, r.Val
					binary.LittleEndian.PutUint32(b[:4], r.Key)
					binary.LittleEndian.PutUint32(b[4:], math.Float32bits(r.Val))
					h.Write(b[:])
				}
				c.lanes[l] = append(c.lanes[l], tb)
			}
		}
		in.cases = append(in.cases, c)
	}
	copy(in.sum[:], h.Sum(nil))
	return in, nil
}

// checkQuery compares a query's switch-path outcome with its references:
// pruning results must equal the exact Reference entry for entry, drained
// aggregates must be bit-identical to the engine's switch plan.
func checkQuery(c *queryCase, survivors []query.Row, drained []aggservice.DrainEntry) error {
	if c.op != aggservice.OpQueryAgg {
		got := c.q.Finish(survivors, c.q.TopN)
		if len(got.Entries) != len(c.ref.Entries) {
			return fmt.Errorf("%s: %d entries from %d survivors, reference has %d",
				c.q.Desc.Name, len(got.Entries), len(survivors), len(c.ref.Entries))
		}
		for i := range got.Entries {
			if got.Entries[i] != c.ref.Entries[i] {
				return fmt.Errorf("%s entry %d: %+v, reference %+v", c.q.Desc.Name, i, got.Entries[i], c.ref.Entries[i])
			}
		}
		return nil
	}
	want := c.planned.Entries
	if len(drained) != len(want) {
		return fmt.Errorf("%s: %d drained groups, switch plan has %d", c.q.Desc.Name, len(drained), len(want))
	}
	for i, e := range drained {
		if e.Key != want[i].Key || math.Float64bits(float64(e.Val)) != math.Float64bits(want[i].Val) {
			return fmt.Errorf("%s group %d: (%d, %v), switch plan (%d, %v)",
				c.q.Desc.Name, i, e.Key, e.Val, want[i].Key, want[i].Val)
		}
	}
	return nil
}

// queryEnv is one built query tenant: a switch admitting the query class
// at construction, its fabric, and one TupleClient per lane.
type queryEnv struct {
	in      *queryInputs
	sw      *aggservice.Switch
	fab     *transport.UDP
	clients [queryLanes]*aggservice.TupleClient
	lanes   [queryLanes]*laneTrace
}

func (in *queryInputs) digest() []byte { return in.sum[:] }

func (in *queryInputs) setup(w *window) (env, error) {
	cfg := aggservice.Config{
		Workers: queryLanes, Pool: 8, Modules: 1, Shards: shards, Jobs: 1,
		Classes: []aggservice.AdmitClass{queryClass}, DrainTimeout: drainTimeout,
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
	e := &queryEnv{in: in, sw: sw, fab: fab}
	for l := range e.clients {
		lane, f := w.laneFabric(fab)
		e.lanes[l] = lane
		e.clients[l] = aggservice.NewTupleClient(queryJob, l, f, cfg)
	}
	return e, nil
}

func (e *queryEnv) backend() string                  { return e.fab.Backend() }
func (e *queryEnv) syscalls() transport.SyscallStats { return e.fab.SyscallStats() }

func (e *queryEnv) close() {
	e.fab.Close()
	e.sw.Close()
}

// run repeats the five queries in order until the deadline. A round is
// one query: every lane's batches, then the read-and-reset drain. Pruning
// queries send on both lanes at once; aggregation queries send lane 0 then
// lane 1, because bit-identity with the engine's plan needs its fold order.
func (e *queryEnv) run(until time.Time, w *window) {
	addr := e.fab.SwitchAddr().String()
	start := time.Now()
	for r := 0; ; r++ {
		c := &e.in.cases[r%len(e.in.cases)]
		roundID, t0 := w.beginRound()
		var survivors [queryLanes][]query.Row
		var batchMs [queryLanes][]float64
		sendLane := func(l int) {
			for _, tb := range c.lanes[l] {
				parent := w.beginCall(e.lanes[l], roundID, false)
				ts := time.Now()
				alive, err := e.clients[l].Send(c.op, tb.keys, tb.vals)
				batchMs[l] = append(batchMs[l], ms(time.Since(ts)))
				w.endCall("worker.send", parent, roundID, queryJob, ts)
				if !w.led.check("send", err) {
					return
				}
				for _, i := range alive {
					survivors[l] = append(survivors[l], tb.rows[i])
				}
			}
		}
		if c.op == aggservice.OpQueryAgg {
			for l := 0; l < queryLanes; l++ {
				sendLane(l)
			}
		} else {
			var wg sync.WaitGroup
			for l := 0; l < queryLanes; l++ {
				wg.Add(1)
				go func(l int) {
					defer wg.Done()
					sendLane(l)
				}(l)
			}
			wg.Wait()
		}
		ts := time.Now()
		drained, err := aggservice.ObserverDrain(addr, queryJob, aggservice.DrainGroups,
			aggservice.DrainFlagResetPrune, observerTimeout)
		w.drainMs = append(w.drainMs, ms(time.Since(ts)))
		w.endCall("drain", 0, roundID, queryJob, ts)
		w.endRound(roundID, t0)
		for l := range batchMs {
			for _, d := range batchMs[l] {
				w.laneCall(l, d)
			}
			w.chunks += int64(len(batchMs[l]))
		}
		w.rows += int64(c.rows)
		if w.led.check("drain", err) {
			w.led.check("output", checkQuery(c, append(survivors[0], survivors[1]...), drained))
		}
		if time.Now().After(until) {
			break
		}
	}
	w.elapsed = time.Since(start)
	w.addJobStats(e.sw, 1)
	for _, c := range e.clients {
		w.tupleSent += c.SentBatches
		w.tupleRetx += c.Retransmits
		w.bpAcks += c.BackpressureAcks
	}
	w.rejects += rejects(e.sw)
}

func (e *queryEnv) audit(w *window) {
	w.led.check("audit", func() error {
		if err := evictAndWait(e.sw, queryJob); err != nil {
			return err
		}
		return auditJob(e.sw, queryJob, "switch")
	}())
}

func (e *queryEnv) replay() replaySpec {
	return replaySpec{profiles: map[int]core.NumericProfile{queryJob: core.DefaultProfile},
		modules: 1, slots: queryClass.Groups, groups: queryClass.Groups}
}
