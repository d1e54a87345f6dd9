// Command perfbench is the repository's end-to-end benchmark. It builds
// each workload through the public packages, times only the calls it
// makes into them, checks every output, and prints one JSON result as
// the last line of standard output. See README.md for the workloads,
// the metrics, and which layer metric should move which end-to-end one.
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"
)

// metric is one reported value with its unit and the number of samples
// behind it.
type metric struct {
	name  string
	unit  string
	value float64
	n     int
}

type metricSet []metric

func (m *metricSet) add(name, unit string, value float64, n int) {
	*m = append(*m, metric{name: name, unit: unit, value: value, n: n})
}

// outcome is what one run hands to the reporter.
type outcome struct {
	e2e       metricSet // the BENCHMARK.json end-to-end metrics
	layer     metricSet // the BENCHMARK.json per-layer metrics (traced runs)
	extra     metricSet // workload-specific figures, printed only
	notes     []string
	attempted int
	failed    int
}

func main() {
	workload := flag.String("workload", "", "workload name: catalogue-attack, fabric-flood, fat-tree-poll, fleet-churn")
	seed := flag.Int64("seed", 1, "workload seed; every input is derived from it")
	seconds := flag.Int("seconds", 10, "measured length of the run, in wall seconds at the reference speed")
	trace := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds int, trace bool) error {
	if seconds < 1 {
		return errors.New("--seconds must be at least 1")
	}
	fmt.Printf("perfbench workload=%s seed=%d seconds=%d trace=%v go=%s gomaxprocs=%d num_cpu=%d\n",
		workload, seed, seconds, trace, runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU())
	out, err := measure(workload, seed, seconds, trace)
	if err != nil {
		return err
	}
	return report(out, trace)
}

// workloads lists the workload names in BENCHMARK.json order.
var workloads = []string{catalogueAttack.name, fabricFlood.name, fatTreePoll.name, fleetChurnName}

// measure runs one workload and returns its metrics.
func measure(workload string, seed int64, seconds int, trace bool) (out *outcome, err error) {
	switch workload {
	case catalogueAttack.name, fabricFlood.name, fatTreePoll.name:
		spec := map[string]simSpec{
			catalogueAttack.name: catalogueAttack,
			fabricFlood.name:     fabricFlood,
			fatTreePoll.name:     fatTreePoll,
		}[workload]
		var res *simResult
		if res, err = runSim(spec, seed, seconds, trace); err == nil {
			out = simOutcome(res, trace)
		}
	case fleetChurnName:
		out, err = runFleet(seed, seconds, trace)
	default:
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	return out, err
}

// report prints every metric by name with unit and sample count, then
// the JSON result line.
func report(out *outcome, trace bool) error {
	for _, n := range out.notes {
		fmt.Println(n)
	}
	printed := map[string]bool{}
	for _, set := range []metricSet{out.e2e, out.extra, out.layer} {
		for _, m := range set {
			if printed[m.name] {
				continue
			}
			printed[m.name] = true
			fmt.Printf("metric %-40s %14.6g %-8s n=%d\n", m.name, m.value, m.unit, m.n)
		}
	}
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	chosen := out.e2e
	if trace {
		chosen = out.layer
	}
	metrics := map[string]jsonMetric{}
	for _, m := range chosen {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("metric %s has no finite value", m.name)
		}
		metrics[m.name] = jsonMetric{Value: m.value, Unit: m.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{out.failed == 0, out.attempted, out.failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if out.failed > 0 {
		return fmt.Errorf("%d of %d operations failed", out.failed, out.attempted)
	}
	return nil
}

// latencyMetrics adds the median and the supported tail of a latency
// sample under the given name prefix. A percentile that falls among the
// misses is reported as capMs, the longest latency any completed sample
// had, and flagged in the notes.
func latencyMetrics(out *outcome, set *metricSet, prefix string, s sample, capMs float64) (p50, tail float64) {
	pt := tailPercentile(len(s))
	p50, tail = s.percentile(50), s.percentile(pt)
	for _, v := range []*float64{&p50, &tail} {
		if math.IsInf(*v, 1) {
			*v = capMs
			out.notes = append(out.notes, fmt.Sprintf("%s: a percentile falls among the %d misses; reported as the longest completed latency", prefix, s.misses()))
		}
	}
	set.add(prefix+"_p50_ms", "ms", p50, len(s))
	set.add(fmt.Sprintf("%s_p%s_ms", prefix, pctName(pt)), "ms", tail, len(s))
	return p50, tail
}

func pctName(p float64) string {
	if p == math.Trunc(p) {
		return fmt.Sprintf("%.0f", p)
	}
	return fmt.Sprintf("%.1f", p)
}

// simOutcome turns a simulated run into metrics.
func simOutcome(res *simResult, trace bool) *outcome {
	out := &outcome{attempted: len(res.eps)}
	b, a := res.before, res.after
	perSim := func(d float64) float64 { return d / res.simSeconds }

	// Detection latency over all episodes, and per kind.
	kinds := map[string]sample{}
	var kindOrder []string
	for i, ep := range res.eps {
		if _, ok := kinds[ep.kind]; !ok {
			kindOrder = append(kindOrder, ep.kind)
		}
		kinds[ep.kind] = append(kinds[ep.kind], res.detect[i])
	}
	capMs := 0.0
	for _, v := range res.detect {
		if !math.IsInf(v, 1) {
			capMs = math.Max(capMs, v)
		}
	}

	out.e2e.add("setup_s", "s", median(res.setups), len(res.setups))
	// The median window resists the bursts of load other tenants put on
	// a shared host; the whole-run figure is reported beside it.
	hostPerSim := res.wallSeconds / res.simSeconds
	out.e2e.add("host_ms_per_unit", "ms", 1000*median(res.windows), len(res.windows))
	stepP50, _ := latencyMetrics(out, &out.extra, "step", res.steps, 0)
	out.e2e.add("step_p50_ms", "ms", stepP50, len(res.steps))
	out.e2e.add("heap_live_mb", "MiB", res.heapLiveMB, res.heapReadings)
	out.extra.add("heap_peak_mb", "MiB", res.heapPeakMB, res.heapReadings)

	latencyMetrics(out, &out.extra, "detect", res.detect, capMs)
	out.extra.add("central_kb_per_sim_s", "KiB/s", res.centralKBps, 1)
	out.extra.add("switch_cpu_pct", "%", res.cpuPct, 1)
	out.extra.add("detect_ratio", "ratio", detectedShare(res.detect), len(res.detect))
	for _, k := range kindOrder {
		s := kinds[k]
		out.extra.add("detect_ratio."+k, "ratio", detectedShare(s), len(s))
		out.extra.add("detect_p50_ms."+k, "ms", orCap(s.percentile(50), capMs), len(s))
	}
	out.extra.add("host_s_per_sim_s", "s/s", hostPerSim, len(res.windows))
	out.extra.add("cpu_s_per_sim_s", "s/s", res.cpuSeconds/res.simSeconds, 1)
	out.extra.add("host_s_per_sim_s.first_window", "s/s", res.windows[0], 1)
	out.extra.add("host_s_per_sim_s.last_window", "s/s", res.windows[len(res.windows)-1], 1)
	out.extra.add("sim_seconds", "s", res.simSeconds, 1)
	out.notes = append(out.notes,
		fmt.Sprintf("digest %s (after %v of the window %s, equal on an instance traced the other way)", res.digest, checkLen, res.checkDigest),
		fmt.Sprintf("episodes %d, missed %d", len(res.eps), res.detect.misses()))
	if res.smallDigest != "" {
		out.notes = append(out.notes, fmt.Sprintf("reduced-size serial and sharded digests equal: %s", res.smallDigest))
	}
	if !trace {
		return out
	}

	l := &out.layer
	cpuLayers(l, res.cpu, res.setupCPU, res.simSeconds)
	// Event spans (serial engines only).
	evN := 0
	var evBusy time.Duration
	for i, name := range eventLayers {
		var ev uint64
		var busy time.Duration
		if res.tracer != nil {
			ev, busy = res.tracer.spans[i].events, res.tracer.spans[i].busy
		}
		evN += int(ev)
		evBusy += busy
		l.add(name+".events_per_sim_s", "1/s", perSim(float64(ev)), int(ev))
		l.add(name+".event_ms_per_sim_s", "ms/s", perSim(ms(busy)), int(ev))
	}
	selfMs, nsPerEvent := 0.0, 0.0
	if res.tracer != nil && evN > 0 {
		selfMs = perSim(ms(res.tracer.runSpan - evBusy))
		nsPerEvent = float64(res.tracer.runSpan.Nanoseconds()) / float64(evN)
	}
	l.add("engine.self_ms_per_sim_s", "ms/s", selfMs, evN)
	l.add("engine.ns_per_event", "ns", nsPerEvent, evN)
	// Spans around the benchmark's own calls.
	l.add("seeder.add_task_ms", "ms", median(res.addTaskMs), len(res.addTaskMs))
	reportUs := 0.0
	if res.rec.innerCalls > 0 {
		reportUs = float64(res.rec.innerBusy.Nanoseconds()) / 1e3 / float64(res.rec.innerCalls)
	}
	l.add("harvest.report_us", "us", reportUs, res.rec.innerCalls)
	l.add("transport.ping_p50_us", "us", 0, 0)
	counterLayers(l, b, a, res.simSeconds, res.pcieUtil)
	l.add("harvest.reports_per_sim_s", "1/s", perSim(float64(a.reports-b.reports)), a.reports-b.reports)
	epochs := float64(a.epochs - b.epochs)
	l.add("engine.epochs_per_sim_s", "1/s", perSim(epochs), int(epochs))
	l.add("engine.par_avail", "shards", ratio(float64(a.shardRuns-b.shardRuns), epochs), int(epochs))
	imb := 0.0
	if epochs > 0 {
		imb = res.imbalance
	}
	l.add("engine.shard_imbalance", "ratio", imb, 1)
	l.add("engine.pending_events", "count", float64(res.pending), 1)
	l.add("transport.bus_dropped", "count", 0, 0)
	l.add("transport.bus_coalesced_ratio", "ratio", 0, 0)
	l.add("seeder.migrations", "count", float64(res.migrations), 1)
	l.add("trace.host_ms_per_unit", "ms", 1000*median(res.windows), len(res.windows))
	return out
}

// detectedShare is the share of a sample that is not a miss.
func detectedShare(s sample) float64 {
	return float64(len(s)-s.misses()) / math.Max(1, float64(len(s)))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// cpuLayers adds the CPU split of the measured window (per simulated
// second) and of one set-up (in ms).
func cpuLayers(l *metricSet, run, setup *cpuSplit, simSeconds float64) {
	for i, name := range layers {
		l.add(name+".cpu_ms_per_sim_s", "ms/s", float64(run.ns[i])/1e6/simSeconds, int(run.ns[i]/1e7))
	}
	for _, phase := range []string{"select", "run", "merge"} {
		v := run.enginePhase[phase]
		l.add("engine."+phase+"_cpu_ms_per_sim_s", "ms/s", float64(v)/1e6/simSeconds, int(v/1e7))
	}
	for i, name := range layers {
		l.add(name+".setup_cpu_ms", "ms", float64(setup.ns[i])/1e6, int(setup.ns[i]/1e7))
	}
}

// counterLayers adds the per-layer counts read from the fabric's, the
// soils' and the Go runtime's cumulative counters between b and a, over
// seconds of simulated time; pcie is the mean bus utilization.
func counterLayers(l *metricSet, b, a simCounters, seconds, pcie float64) {
	per := func(v float64) float64 { return v / seconds }
	pkts := float64((a.delivered + a.dropped) - (b.delivered + b.dropped))
	l.add("fabric.pkts_per_sim_s", "1/s", per(pkts), int(pkts))
	l.add("fabric.drop_ratio", "ratio", ratio(float64(a.dropped-b.dropped), pkts), int(pkts))
	probes := float64((a.cacheHits + a.cacheMiss) - (b.cacheHits + b.cacheMiss))
	l.add("dataplane.flow_cache_hit_ratio", "ratio", ratio(float64(a.cacheHits-b.cacheHits), probes), int(probes))
	l.add("dataplane.pcie_util", "ratio", pcie, len(a.bus))
	drops := float64(a.sampleDrops - b.sampleDrops)
	l.add("dataplane.sample_drops_per_sim_s", "1/s", per(drops), int(drops))
	polls := float64(a.pollsIssued - b.pollsIssued)
	l.add("soil.polls_per_sim_s", "1/s", per(polls), int(polls))
	l.add("soil.poll_delivery_ratio", "ratio", ratio(float64(a.pollsDelivered-b.pollsDelivered), polls), int(polls))
	l.add("soil.probes_per_sim_s", "1/s", per(float64(a.probes-b.probes)), int(a.probes-b.probes))
	m, n := b.mem, a.mem
	l.add("gc.allocs_per_sim_s", "1/s", per(float64(n.allocs-m.allocs)), int(n.allocs-m.allocs))
	l.add("gc.alloc_mb_per_sim_s", "MiB/s", per(float64(n.allocBytes-m.allocBytes)/(1<<20)), int(n.allocs-m.allocs))
	l.add("gc.cycles_per_sim_s", "1/s", per(float64(n.cycles-m.cycles)), int(n.cycles-m.cycles))
	l.add("gc.pause_ms_per_sim_s", "ms/s", per(float64(n.pauseNs-m.pauseNs)/1e6), int(n.cycles-m.cycles))
}
