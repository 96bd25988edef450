package main

import (
	"math"
	"strings"
	"testing"
	"time"

	"fpisa/internal/aggservice"
	"fpisa/internal/core"
)

// runOnce builds a workload and runs one round (the deadline has already
// passed when the loop first checks it), then audits, as a run does.
func runOnce(t *testing.T, in inputs, traced bool) *ledger {
	t.Helper()
	led := &ledger{}
	w := newWindow(traced, led)
	e, err := in.setup(w)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	e.run(time.Now(), w)
	e.audit(w)
	if traced {
		runReplay(w, e.replay())
	}
	return led
}

func nudge(v float32) float32 { return math.Nextafter32(v, float32(math.Inf(1))) }

// TestCorruptedReferenceFailsCheck runs every workload once against its
// real reference, which must pass, and once against a reference with one
// value moved by one ulp, which must be counted as a failed output check.
func TestCorruptedReferenceFailsCheck(t *testing.T) {
	bf16 := core.NumericProfile{Format: core.FormatBF16}
	cases := []struct {
		name string
		// build returns the workload's inputs and a function corrupting
		// their reference.
		build func(t *testing.T) (inputs, func())
	}{
		{"allreduce-f32-pipeline", func(t *testing.T) (inputs, func()) {
			in, err := genAllreduce(allreduceSpec{jobs: 1, workers: 2, prof: core.DefaultProfile, chunksPerRound: 64}, 7)
			if err != nil {
				t.Fatal(err)
			}
			return in, func() { in.refs[0][0][5] = nudge(in.refs[0][0][5]) }
		}},
		{"allreduce-bf16-2tenant", func(t *testing.T) (inputs, func()) {
			in, err := genAllreduce(allreduceSpec{jobs: 2, workers: 1, prof: bf16, weights: []int{1, 3}, chunksPerRound: 64}, 7)
			if err != nil {
				t.Fatal(err)
			}
			return in, func() { in.refs[0][1][9] = nudge(in.refs[0][1][9]) }
		}},
		{"query-table2", func(t *testing.T) (inputs, func()) {
			in, err := genQuery(7)
			if err != nil {
				t.Fatal(err)
			}
			return in, func() { in.cases[0].ref.Entries[0].Val++ }
		}},
		{"tree-2leaf-f32", func(t *testing.T) (inputs, func()) {
			in, err := genTree(7, 0.02)
			if err != nil {
				t.Fatal(err)
			}
			return in, func() { in.ref[3] = nudge(in.ref[3]) }
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			in, corrupt := c.build(t)
			if led := runOnce(t, in, true); led.failed.Load() != 0 {
				t.Fatalf("clean run failed: %v", led.errs)
			}
			corrupt()
			led := runOnce(t, in, false)
			if led.failed.Load() == 0 {
				t.Fatal("a corrupted reference passed the output check")
			}
			if !strings.HasPrefix(led.errs[0], "output: ") {
				t.Fatalf("failure %q is not the output check", led.errs[0])
			}
		})
	}
}

// TestAggregateCheckIsBitExact corrupts a drained group sum by one ulp:
// the aggregation check compares bits, not a tolerance.
func TestAggregateCheckIsBitExact(t *testing.T) {
	in, err := genQuery(7)
	if err != nil {
		t.Fatal(err)
	}
	for i := range in.cases {
		c := &in.cases[i]
		if len(c.planned.Entries) == 0 {
			continue
		}
		drained := make([]aggservice.DrainEntry, len(c.planned.Entries))
		for k, e := range c.planned.Entries {
			drained[k] = aggservice.DrainEntry{Key: e.Key, Val: float32(e.Val)}
		}
		if err := checkQuery(c, nil, drained); err != nil {
			t.Fatalf("%s: exact drain rejected: %v", c.q.Desc.Name, err)
		}
		drained[0].Val = nudge(drained[0].Val)
		if err := checkQuery(c, nil, drained); err == nil {
			t.Fatalf("%s: a drain one ulp off passed", c.q.Desc.Name)
		}
		return
	}
	t.Fatal("no aggregation query")
}

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	tr := newTracer()
	tr.add(span{id: 1, name: "parent", start: 0, end: 100})
	tr.add(span{id: 2, parent: 1, name: "child", start: 10, end: 40})
	tr.add(span{id: 3, parent: 1, name: "child", start: 30, end: 50}) // overlaps the first child
	tr.add(span{id: 4, parent: 1, name: "child", start: 90, end: 120})
	for _, s := range tr.summarize() {
		if s.name == "parent" && s.selfNs != 100-40-10 {
			t.Fatalf("parent self time %d, want 50", s.selfNs)
		}
	}
}
