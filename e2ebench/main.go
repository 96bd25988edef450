// Command e2ebench is the repository's end-to-end benchmark: closed-loop
// load from up to two lanes, over real UDP on loopback, into switches
// running the real service and pipeline, with every output checked against
// a host reference and every ledger audited at the end of the run.
//
//	e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 the last line of standard output is a JSON object holding
// the end-to-end metrics; with --trace 1 it holds the per-layer metrics of
// a traced run (spans timed around each layer's public calls from this
// benchmark's own code), plus the tracing overhead against an untraced run
// of the same length. NOTES.md defines every workload and metric.
package main

import (
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"fpisa/internal/core"
)

// setups is how many times a run builds its workload; setup_s is their median.
const setups = 21

// runLimit stops a wedged run before the caller's own limit does.
const runLimit = 170 * time.Second

// workload is one named traffic mix.
type workload struct {
	name string
	// headline is the throughput metric tracing overhead is read from.
	headline string
	// gen draws the seed's inputs; the tree sizes its one Reduce by the
	// run length.
	gen func(seed int64, seconds float64) (inputs, error)
}

// inputs are a seed's generated inputs with their references.
type inputs interface {
	// setup builds the switches and fabrics and admits the jobs.
	setup(w *window) (env, error)
	// digest hashes the generated inputs.
	digest() []byte
}

var workloads = []workload{
	{name: "allreduce-f32-pipeline", headline: "chunks_per_s", gen: func(seed int64, _ float64) (inputs, error) {
		return genAllreduce(allreduceSpec{jobs: 1, workers: 2, prof: core.DefaultProfile, chunksPerRound: 1024}, seed)
	}},
	{name: "allreduce-bf16-2tenant", headline: "chunks_per_s", gen: func(seed int64, _ float64) (inputs, error) {
		bf16 := core.NumericProfile{Format: core.FormatBF16}
		return genAllreduce(allreduceSpec{jobs: 2, workers: 1, prof: bf16, weights: []int{1, 3}, chunksPerRound: 4096}, seed)
	}},
	{name: "query-table2", headline: "rows_per_s", gen: func(seed int64, _ float64) (inputs, error) {
		return genQuery(seed)
	}},
	{name: "tree-2leaf-f32", headline: "chunks_per_s", gen: func(seed int64, seconds float64) (inputs, error) {
		return genTree(seed, seconds)
	}},
}

// runOpts are one run's command-line settings and its inputs' digest.
type runOpts struct {
	seed    int64
	seconds float64
	traced  bool
	inputs  string
}

func main() {
	name := flag.String("workload", "", "workload to run: "+workloadNames())
	seed := flag.Int64("seed", 1, "seed the inputs are drawn from")
	seconds := flag.Float64("seconds", 10, "length of the timed window")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer run")
	flag.Parse()
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: e2ebench --workload <%s> --seed <n> --seconds <s> --trace <0|1>\n", workloadNames())
		os.Exit(2)
	}
	time.AfterFunc(runLimit, func() {
		fmt.Fprintf(os.Stderr, "e2ebench: run exceeded %v\n", runLimit)
		os.Exit(3)
	})
	in, err := wl.gen(*seed, *seconds)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: inputs: %v\n", err)
		os.Exit(1)
	}
	opts := runOpts{seed: *seed, seconds: *seconds, traced: *trace == 1, inputs: hex.EncodeToString(in.digest()[:8])}
	if err := run(*wl, in, opts); err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		os.Exit(1)
	}
}

func workloadNames() string {
	var names []string
	for _, wl := range workloads {
		names = append(names, wl.name)
	}
	return strings.Join(names, "|")
}

// printHeader prints what makes two runs comparable and replayable.
func printHeader(wl workload, o runOpts, backend string) {
	fmt.Printf("# e2ebench workload=%s seed=%d seconds=%g trace=%v\n", wl.name, o.seed, o.seconds, o.traced)
	fmt.Printf("# inputs sha256=%s go=%s GOMAXPROCS=%d nproc=%d backend=%s link=loopback(127.0.0.1)\n",
		o.inputs, runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), backend)
}

// metric is one reported number with the samples behind it; note says why
// a metric the workload cannot measure reads 0.
type metric struct {
	name  string
	value float64
	unit  string
	n     int
	note  string
}

// printOnly names the times that exist on one workload only. They are
// printed but left out of the JSON, where they would read 0 on every run
// of the other workloads.
var printOnly = map[string]bool{
	"uplink.send_us_per_call":        true,
	"switch.spine_handle_us_per_pkt": true,
	"drain.ms_p50":                   true,
}

// run measures the workload: one untraced window, and for --trace 1 a
// traced window after it.
func run(wl workload, in inputs, o runOpts) error {
	led := &ledger{}
	var setupS []float64
	deadline := func() time.Time { return time.Now().Add(time.Duration(o.seconds * float64(time.Second))) }
	plain := newWindow(false, led)
	backend, err := measure(in, deadline, plain, &setupS, setups)
	if err != nil {
		return err
	}
	printHeader(wl, o, backend)
	e2e := endToEnd(plain, setupS, led)
	printMetrics("e2e", e2e)
	metrics := e2e
	if o.traced {
		tw := newWindow(true, led)
		if _, err := measure(in, deadline, tw, &setupS, 1); err != nil {
			return err
		}
		metrics = perLayer(wl, plain, tw)
		printMetrics("layer", metrics)
		printSpans(tw.tr)
		path := fmt.Sprintf(".bench_build/trace/%s-seed%d.tsv", wl.name, o.seed)
		if err := tw.tr.write(path); err != nil {
			fmt.Fprintf(os.Stderr, "e2ebench: writing spans: %v\n", err)
		} else {
			fmt.Printf("# spans written to %s (%d dropped past the in-memory cap)\n", path, tw.tr.dropped.Load())
		}
	}
	for _, e := range led.errs {
		fmt.Fprintf(os.Stderr, "e2ebench: failed %s\n", e)
	}
	attempted, failed := led.attempted.Load(), led.failed.Load()
	fmt.Printf("# operations attempted=%d failed=%d fail_ratio=%g\n", attempted, failed, ratio(float64(failed), float64(attempted)))
	out := map[string]any{"correct": failed == 0, "attempted": attempted, "failed": failed}
	vals := map[string]any{}
	for _, m := range metrics {
		if !printOnly[m.name] {
			vals[m.name] = map[string]any{"value": m.value, "unit": m.unit}
		}
	}
	out["metrics"] = vals
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// endToEnd derives the metrics a user of the system sees from an untraced
// window.
func endToEnd(w *window, setupS []float64, led *ledger) []metric {
	secs := w.elapsed.Seconds()
	attempted, failed := led.attempted.Load(), led.failed.Load()
	batch50, nBatch := w.slowestLane(0.5)
	batch90, _ := w.slowestLane(0.9)
	return []metric{
		{name: "setup_s", value: quantile(setupS, 0.5), unit: "s", n: len(setupS)},
		{name: "chunks_per_s", value: ratio(float64(w.chunks), secs), unit: "1/s", n: int(w.chunks)},
		{name: "rows_per_s", value: ratio(float64(w.rows), secs), unit: "1/s", n: int(w.rows)},
		{name: "round_ms_p50", value: quantile(w.roundMs, 0.5), unit: "ms", n: len(w.roundMs)},
		{name: "round_ms_p90", value: quantile(w.roundMs, 0.9), unit: "ms", n: len(w.roundMs)},
		{name: "batch_ms_p50", value: batch50, unit: "ms", n: nBatch},
		{name: "batch_ms_p90", value: batch90, unit: "ms", n: nBatch},
		{name: "success_ratio", value: 1 - ratio(float64(failed), float64(attempted)), unit: "ratio", n: int(attempted)},
		{name: "peak_rss_mb", value: peakRSSMB(), unit: "MB", n: 1},
	}
}

// perLayer derives the per-layer metrics: counters and spans from the
// traced window, process allocation counts from the untraced one (tracing
// allocates), and the tracing overhead from the two together.
func perLayer(wl workload, plain, w *window) []metric {
	chunks := float64(w.chunks)
	var lat []float64
	var sendCalls, sendMsgs, firstSends, resends, sendNs, recvNs int64
	for _, l := range w.lanes {
		for _, ns := range l.latNs {
			lat = append(lat, float64(ns)/1e3)
		}
		sendCalls += l.sendCalls.Load()
		sendMsgs += l.sendMsgs.Load()
		firstSends += l.firstSends.Load()
		resends += l.resends.Load()
		sendNs += l.sendNs.Load()
		recvNs += l.recvNs.Load()
	}
	var all, leaf, spine handleStats
	for name, st := range w.handlers {
		add := func(dst *handleStats) {
			dst.calls.Add(st.calls.Load())
			dst.pkts.Add(st.pkts.Load())
			dst.rows.Add(st.rows.Load())
			dst.deliveries.Add(st.deliveries.Load())
			dst.ns.Add(st.ns.Load())
		}
		add(&all)
		// The leaf is the switch the workers talk to: the only switch of
		// a flat workload, the two leaves of the tree.
		if name == "switch.spine_handle" {
			add(&spine)
		} else {
			add(&leaf)
		}
	}
	perPkt := func(st *handleStats) float64 { return ratio(float64(st.ns.Load())/1e3, float64(st.pkts.Load())) }
	var upCalls, upNs int64
	for _, u := range w.uplinks {
		upCalls += u.sendCalls.Load()
		upNs += u.sendNs.Load()
	}
	tree := wl.name == "tree-2leaf-f32"
	query := wl.name == "query-table2"
	rr := w.replayRes
	out := []metric{
		{name: "worker.chunk_us_p50", value: quantile(lat, 0.5), unit: "us", n: len(lat)},
		{name: "worker.chunk_us_p99", value: quantile(lat, 0.99), unit: "us", n: len(lat)},
		{name: "worker.adds_per_send", value: ratio(float64(sendMsgs), float64(sendCalls)), unit: "count", n: int(sendCalls)},
		{name: "worker.retx_ratio", value: ratio(float64(resends), float64(firstSends)), unit: "ratio", n: int(firstSends)},
		{name: "worker.batch_shrinks", value: float64(w.shrinks), unit: "count", n: 1},
		{name: "worker.backpressure_acks", value: float64(w.bpAcks), unit: "count", n: 1},
		{name: "worker.send_us_per_chunk", value: ratio(float64(sendNs)/1e3, chunks), unit: "us", n: int(sendCalls)},
		{name: "worker.recv_wait_us_per_chunk", value: ratio(float64(recvNs)/1e3, chunks), unit: "us", n: int(w.chunks)},
		{name: "transport.syscalls_per_chunk", value: ratio(float64(w.sys.Syscalls()), chunks), unit: "count", n: int(w.sys.Syscalls())},
		{name: "transport.dgrams_per_syscall", value: w.sys.DatagramsPerSyscall(), unit: "count", n: int(w.sys.Syscalls())},
		{name: "transport.send_errors", value: float64(w.sys.SendErrors), unit: "count", n: 1},
		{name: "switch.handle_us_per_pkt", value: perPkt(&all), unit: "us", n: int(all.pkts.Load())},
		{name: "switch.pkts_per_call", value: ratio(float64(all.pkts.Load()), float64(all.calls.Load())), unit: "count", n: int(all.calls.Load())},
		{name: "switch.deliveries_per_pkt", value: ratio(float64(all.deliveries.Load()), float64(all.pkts.Load())), unit: "count", n: int(all.pkts.Load())},
		{name: "switch.handle_us_per_row", value: ratio(float64(all.ns.Load())/1e3, float64(all.rows.Load())), unit: "us", n: int(all.rows.Load())},
		{name: "switch.sched_defers", value: float64(w.jobs.SchedDefers), unit: "count", n: 1},
		{name: "switch.quota_drops", value: float64(w.jobs.QuotaDrops), unit: "count", n: 1},
		{name: "switch.rejects", value: float64(w.rejects), unit: "count", n: 1},
		{name: "switch.dup_ratio", value: ratio(float64(w.jobs.Retransmits), float64(w.jobs.Adds)), unit: "ratio", n: int(w.jobs.Adds)},
		{name: "switch.coalesced_ratio", value: ratio(float64(w.jobs.Coalesced), float64(w.jobs.Completions)), unit: "ratio", n: int(w.jobs.Completions)},
		{name: "core.add_ns", value: rr.addNs, unit: "ns", n: rr.adds},
		{name: "core.allocs_per_add", value: rr.allocs, unit: "count", n: rr.adds},
		{name: "core.bytes_per_add", value: rr.bytes, unit: "B", n: rr.adds},
		{name: "pisa.process_ns", value: rr.processNs, unit: "ns", n: rr.processed},
		{name: "pisa.dropped", value: float64(rr.dropped), unit: "count", n: rr.processed},
		{name: "pisa.recirculated", value: float64(rr.recirculated), unit: "count", n: rr.processed},
		{name: "proc.allocs_per_chunk", value: ratio(float64(plain.mallocs), float64(plain.chunks)), unit: "count", n: int(plain.chunks)},
		{name: "proc.alloc_bytes_per_chunk", value: ratio(float64(plain.allocBytes), float64(plain.chunks)), unit: "B", n: int(plain.chunks)},
		{name: "proc.gc_cycles", value: float64(plain.gcCycles), unit: "count", n: 1},
		{name: "uplink.send_us_per_call", value: ratio(float64(upNs)/1e3, float64(upCalls)), unit: "us", n: int(upCalls)},
		{name: "uplink.retransmits", value: float64(w.uplinkRetx), unit: "count", n: 1},
		{name: "uplink.pending_end", value: float64(w.uplinkPendingEnd), unit: "count", n: 1},
		{name: "switch.leaf_handle_us_per_pkt", value: perPkt(&leaf), unit: "us", n: int(leaf.pkts.Load())},
		{name: "switch.spine_handle_us_per_pkt", value: perPkt(&spine), unit: "us", n: int(spine.pkts.Load())},
		{name: "tuple.retx_ratio", value: ratio(float64(w.tupleRetx), float64(w.tupleSent)), unit: "ratio", n: int(w.tupleSent)},
		{name: "tuple.backpressure_acks", value: float64(w.bpAcks), unit: "count", n: 1},
		{name: "drain.ms_p50", value: quantile(w.drainMs, 0.5), unit: "ms", n: len(w.drainMs)},
	}
	untraced, tracedV := headline(wl, plain), headline(wl, w)
	out = append(out, metric{name: "trace.overhead_pct", value: 100 * ratio(untraced-tracedV, untraced), unit: "%", n: 2})
	fmt.Printf("# tracing overhead: %s untraced %.1f, traced %.1f\n", wl.headline, untraced, tracedV)
	for i := range out {
		out[i].note = unavailable(out[i].name, tree, query)
		if out[i].note != "" {
			out[i].value = 0
		}
	}
	return out
}

// unavailable says why a workload cannot measure a per-layer metric.
func unavailable(name string, tree, query bool) string {
	switch {
	case strings.HasPrefix(name, "uplink.") || name == "switch.spine_handle_us_per_pkt":
		if !tree {
			return "only tree-2leaf-f32 has an uplink and a spine"
		}
	case strings.HasPrefix(name, "tuple.") || strings.HasPrefix(name, "drain."):
		if !query {
			return "only query-table2 sends tuple batches and drains"
		}
	case name == "worker.batch_shrinks":
		if query {
			return "TupleClient is stop-and-wait and has no adaptive batch"
		}
	}
	return ""
}

func headline(wl workload, w *window) float64 {
	if wl.headline == "rows_per_s" {
		return ratio(float64(w.rows), w.elapsed.Seconds())
	}
	return ratio(float64(w.chunks), w.elapsed.Seconds())
}

func printMetrics(kind string, metrics []metric) {
	for _, m := range metrics {
		if m.note != "" {
			fmt.Printf("%s %-32s unavailable: %s\n", kind, m.name, m.note)
			continue
		}
		fmt.Printf("%s %-32s %14.6g %-5s (n=%d)\n", kind, m.name, m.value, m.unit, m.n)
	}
}

// printSpans prints each span name's count, total and self time.
func printSpans(tr *tracer) {
	fmt.Printf("# %-16s %10s %12s %12s %10s\n", "span", "count", "total_ms", "self_ms", "p50_us")
	for _, s := range tr.summarize() {
		durs := make([]float64, len(s.durNs))
		for i, d := range s.durNs {
			durs[i] = float64(d) / 1e3
		}
		fmt.Printf("# %-16s %10d %12.3f %12.3f %10.2f\n", s.name, s.count,
			float64(s.totalNs)/1e6, float64(s.selfNs)/1e6, quantile(durs, 0.5))
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// quantile interpolates linearly between the closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// peakRSSMB is the process's maximum resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // KiB on Linux
}
