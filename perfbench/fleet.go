package main

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"farm/internal/engine"
	"farm/internal/fleet"
	"farm/internal/tasks"
)

// fleet-churn boots an in-process fleet service (spine-leaf 2x4x8 on
// the wall-clock engine, background attack traffic, HTTP off) and
// drives it over loopback RPC with a closed loop of two clients. Each
// client owns half of the catalogue and loops submit -> status ->
// retire -> status on a task of its half. A lag probe scheduled every
// 10 ms through the service's engine measures how late its events fire.
const fleetChurnName = "fleet-churn"

const (
	fleetClients  = 2
	probeInterval = 10 * time.Millisecond
	// cyclesPerSecond sizes a run: each client runs this many
	// submit/status/retire/status cycles per requested second. The work
	// is fixed, not the time, because the service retains memory per
	// operation: a fixed-time run would report a larger heap for a
	// faster service.
	cyclesPerSecond = 90
)

func fleetConfig(seed int64) fleet.Config {
	return fleet.Config{
		Spines: 2, Leaves: 4, HostsPerLeaf: 8,
		Traffic: true, TrafficSeed: seed,
		LeafCapacity: dcCapacity(), SpineCapacity: dcCapacity(),
		RPCAddr: "127.0.0.1:0",
	}
}

// bootFleet starts a service, connects the clients and deploys the
// whole catalogue through the first client: the fleet-churn set-up,
// which compiles and places every task once.
func bootFleet(seed int64) (*fleet.Service, []*fleet.Client, error) {
	svc, err := fleet.New(fleetConfig(seed))
	if err != nil {
		return nil, nil, err
	}
	if err := svc.Start(); err != nil {
		return nil, nil, fmt.Errorf("start fleet: %w", err)
	}
	var clients []*fleet.Client
	for i := 0; i < fleetClients; i++ {
		c, err := fleet.Dial(svc.RPCAddr())
		if err != nil {
			closeFleet(svc, clients)
			return nil, nil, fmt.Errorf("dial fleet: %w", err)
		}
		clients = append(clients, c)
	}
	for _, name := range tasks.Names() {
		if err := clients[0].Submit(name); err != nil {
			closeFleet(svc, clients)
			return nil, nil, fmt.Errorf("deploy %s: %w", name, err)
		}
	}
	return svc, clients, nil
}

// retireAll undeploys the catalogue the set-up deployed.
func retireAll(c *fleet.Client) error {
	for _, name := range tasks.Names() {
		if err := c.Retire(name); err != nil {
			return fmt.Errorf("retire %s: %w", name, err)
		}
	}
	return nil
}

func closeFleet(svc *fleet.Service, clients []*fleet.Client) error {
	for _, c := range clients {
		c.Close()
	}
	return svc.Stop()
}

// onEngine runs fn on the service's engine goroutine and waits for it.
func onEngine(sched engine.Scheduler, fn func()) {
	done := make(chan struct{})
	sched.At(sched.Now(), func() {
		fn()
		close(done)
	})
	<-done
}

// lagProbe re-arms itself every probeInterval on the service engine and
// records how late each firing ran.
type lagProbe struct {
	sched   engine.Scheduler
	mu      sync.Mutex
	lags    []float64 // ms
	stopped atomic.Bool
	done    chan struct{}
}

func startLagProbe(sched engine.Scheduler) *lagProbe {
	p := &lagProbe{sched: sched, done: make(chan struct{})}
	due := sched.Now() + probeInterval
	var fire func()
	fire = func() {
		lag := sched.Now() - due
		p.mu.Lock()
		p.lags = append(p.lags, ms(lag))
		p.mu.Unlock()
		if p.stopped.Load() {
			close(p.done)
			return
		}
		due += probeInterval
		sched.At(due, fire)
	}
	sched.At(due, fire)
	return p
}

// stop waits for the probe's last firing, so no probe event remains.
func (p *lagProbe) stop() sample {
	p.stopped.Store(true)
	<-p.done
	p.mu.Lock()
	defer p.mu.Unlock()
	return append(sample(nil), p.lags...)
}

// churnClient is one operator in the closed loop.
type churnClient struct {
	c      *fleet.Client
	owned  []string
	writes sample
	reads  sample
	cycles sample // one submit/status/retire/status round, end to end
	ops    int
	failed int
	live   string // a task this client submitted and has not retired
}

// has reports whether the status lists task.
func has(st *fleet.StatusSnapshot, task string) bool {
	for _, t := range st.Tasks {
		if t.Name == task {
			return true
		}
	}
	return false
}

// loop runs submit -> status -> retire -> status cycles. A failed call or a status that contradicts the client's own
// last write counts as a failed operation, and its latency as a miss.
func (cc *churnClient) loop(rng func(int) int, cycles int) {
	timed := func(into *sample, call func() error) bool {
		cc.ops++
		start := time.Now()
		err := call()
		if err != nil {
			cc.failed++
			*into = append(*into, miss)
			return false
		}
		*into = append(*into, ms(time.Since(start)))
		return true
	}
	check := func(task string, want bool) {
		var st *fleet.StatusSnapshot
		ok := timed(&cc.reads, func() error {
			var err error
			st, err = cc.c.Status()
			return err
		})
		if ok && has(st, task) != want {
			cc.failed++
		}
	}
	for i := 0; i < cycles; i++ {
		start, failed := time.Now(), cc.failed
		task := cc.owned[rng(len(cc.owned))]
		if timed(&cc.writes, func() error { return cc.c.Submit(task) }) {
			cc.live = task
		}
		check(task, true)
		if timed(&cc.writes, func() error { return cc.c.Retire(task) }) {
			cc.live = ""
		}
		check(task, false)
		if cc.failed > failed {
			cc.cycles = append(cc.cycles, miss)
		} else {
			cc.cycles = append(cc.cycles, ms(time.Since(start)))
		}
	}
}

// timedBoot boots the service after a collection and returns its boot
// time.
func timedBoot(seed int64) (*fleet.Service, []*fleet.Client, float64, error) {
	runtime.GC()
	start := time.Now()
	svc, clients, err := bootFleet(seed)
	return svc, clients, time.Since(start).Seconds(), err
}

func runFleet(seed int64, seconds int, trace bool) (*outcome, error) {
	out := &outcome{}
	// The measured service boots first, so nothing an earlier boot left
	// behind counts in its heap; the other boots follow the window.
	var setupProf *cpuProfiler
	if trace {
		var err error
		if setupProf, err = startCPUProfile(); err != nil {
			return nil, err
		}
	}
	svc, clients, took, err := timedBoot(seed)
	var setupCPU *cpuSplit
	if setupProf != nil {
		split, perr := setupProf.stop()
		if err == nil {
			setupCPU, err = split, perr
		}
	}
	if err != nil {
		return nil, err
	}
	setups := []float64{took}
	stopped := false
	defer func() {
		if !stopped {
			closeFleet(svc, clients)
		}
	}()
	if err := retireAll(clients[0]); err != nil {
		return nil, err
	}

	// Deal the catalogue: disjoint halves, so each client's view of its
	// own tasks is exact.
	cat := tasks.Names()
	ccs := make([]*churnClient, fleetClients)
	for i := range ccs {
		ccs[i] = &churnClient{c: clients[i]}
	}
	for i, name := range cat {
		ccs[i%fleetClients].owned = append(ccs[i%fleetClients].owned, name)
	}

	sched := svc.Fabric().Sched()
	view := &simRun{root: sched, fab: svc.Fabric(), sd: svc.Seeder(), rec: &recorder{}}
	var before, after simCounters
	var cpuPct, pcie float64
	m0, err := svc.Metrics()
	if err != nil {
		return nil, err
	}
	onEngine(sched, func() { before = view.counters() })
	probe := startLagProbe(sched)
	heap := startHeapSampler()
	var prof *cpuProfiler
	if trace {
		if prof, err = startCPUProfile(); err != nil {
			heap.stop()
			return nil, err
		}
	}
	wallStart, cpuStart := time.Now(), processCPU()
	var wg sync.WaitGroup
	for i, cc := range ccs {
		wg.Add(1)
		go func(i int, cc *churnClient) {
			defer wg.Done()
			r := seedRand(seed, int64(10+i))
			cc.loop(r.Intn, cyclesPerSecond*seconds)
		}(i, cc)
	}
	wg.Wait()
	wall := time.Since(wallStart).Seconds()
	cpuSeconds := (processCPU() - cpuStart).Seconds()
	var cpu *cpuSplit
	if prof != nil {
		if cpu, err = prof.stop(); err != nil {
			heap.stop()
			return nil, err
		}
	}
	heapLive, heapPeak, heapReadings := heap.stop()
	onEngine(sched, func() {
		after = view.counters()
		cpuPct, pcie = view.switchLoad(before)
	})
	m1, err := svc.Metrics()
	if err != nil {
		return nil, err
	}
	lags := probe.stop()

	var pings sample
	if trace {
		for i := 0; i < 200; i++ {
			start := time.Now()
			if err := clients[0].Ping(); err != nil {
				return nil, fmt.Errorf("ping: %w", err)
			}
			pings = append(pings, float64(time.Since(start).Nanoseconds())/1e3)
		}
	}

	// Reconcile: every client retired what it submitted, so the fleet
	// must end with no task; a survivor is unexpected, and a client's
	// unretired task that is missing is lost.
	names, err := svc.TaskNames()
	if err != nil {
		return nil, err
	}
	expected := map[string]bool{}
	for _, cc := range ccs {
		if cc.live != "" {
			expected[cc.live] = true
		}
	}
	lostOrUnexpected := 0
	actual := map[string]bool{}
	for _, n := range names {
		actual[n] = true
		if !expected[n] {
			lostOrUnexpected++
		}
	}
	for n := range expected {
		if !actual[n] {
			lostOrUnexpected++
		}
	}
	stopped = true
	if err := closeFleet(svc, clients); err != nil {
		return nil, fmt.Errorf("stop fleet: %w", err)
	}
	if lostOrUnexpected > 0 {
		return nil, fmt.Errorf("fleet-churn: final task set %v, clients left %v deployed", names, expected)
	}
	for moreBuilds(setups) {
		s, cs, took, err := timedBoot(seed)
		if err != nil {
			return nil, err
		}
		if err := closeFleet(s, cs); err != nil {
			return nil, fmt.Errorf("stop fleet: %w", err)
		}
		setups = append(setups, took)
	}

	var writes, reads, cycles sample
	ops, failed := 0, 0
	for _, cc := range ccs {
		writes = append(writes, cc.writes...)
		reads = append(reads, cc.reads...)
		cycles = append(cycles, cc.cycles...)
		ops += cc.ops
		failed += cc.failed
	}
	out.attempted, out.failed = ops, failed
	if ops == 0 {
		return nil, fmt.Errorf("fleet-churn completed no operation in %d s", seconds)
	}
	capMs := 0.0
	for _, v := range cycles {
		if !math.IsInf(v, 1) {
			capMs = math.Max(capMs, v)
		}
	}
	// The unit of work is one client cycle; two clients run at once.
	out.e2e.add("setup_s", "s", median(setups), len(setups))
	out.e2e.add("host_ms_per_unit", "ms", 1000*wall/float64(len(cycles)), len(cycles))
	cycleP50, _ := latencyMetrics(out, &out.extra, "cycle", cycles, capMs)
	out.e2e.add("step_p50_ms", "ms", cycleP50, len(cycles))
	out.e2e.add("heap_live_mb", "MiB", heapLive, heapReadings)
	out.extra.add("heap_peak_mb", "MiB", heapPeak, heapReadings)

	out.extra.add("write_p50_ms", "ms", orCap(writes.percentile(50), capMs), len(writes))
	out.extra.add("write_p99_ms", "ms", orCap(writes.percentile(99), capMs), len(writes))
	out.extra.add("read_p50_ms", "ms", orCap(reads.percentile(50), capMs), len(reads))
	out.extra.add("read_p99_ms", "ms", orCap(reads.percentile(99), capMs), len(reads))
	out.extra.add("ops_per_s", "1/s", float64(ops)/wall, ops)
	out.extra.add("cpu_ms_per_cycle", "ms", 1000*cpuSeconds/float64(len(cycles)), len(cycles))
	out.extra.add("switch_cpu_pct", "%", cpuPct, 1)
	out.extra.add("central_kb_per_sim_s", "KiB/s", float64(after.centralBytes-before.centralBytes)/1024/wall, 1)
	out.extra.add("op_fail_ratio", "ratio", float64(failed)/float64(ops), ops)
	out.extra.add("loop_lag_p50_ms", "ms", lags.percentile(50), len(lags))
	out.extra.add("loop_lag_p99_ms", "ms", lags.percentile(99), len(lags))
	out.notes = append(out.notes,
		fmt.Sprintf("reconciliation: %d tasks expected, %d present, none lost or unexpected", len(expected), len(names)),
		fmt.Sprintf("writes %d (p%s tail needs %d), reads %d", len(writes), pctName(tailPercentile(len(writes))), minBeyond, len(reads)))
	if !trace {
		return out, nil
	}

	l := &out.layer
	cpuLayers(l, cpu, setupCPU, wall)
	perS := func(v float64) float64 { return v / wall }
	for _, name := range eventLayers {
		l.add(name+".events_per_sim_s", "1/s", 0, 0)
		l.add(name+".event_ms_per_sim_s", "ms/s", 0, 0)
	}
	l.add("engine.self_ms_per_sim_s", "ms/s", 0, 0)
	l.add("engine.ns_per_event", "ns", 0, 0)
	l.add("seeder.add_task_ms", "ms", 0, 0)
	l.add("harvest.report_us", "us", 0, 0)
	l.add("transport.ping_p50_us", "us", pings.percentile(50), len(pings))
	counterLayers(l, before, after, wall, pcie)
	reports := float64(m1.HarvestReports - m0.HarvestReports)
	l.add("harvest.reports_per_sim_s", "1/s", perS(reports), int(reports))
	l.add("engine.epochs_per_sim_s", "1/s", 0, 0)
	l.add("engine.par_avail", "shards", 0, 0)
	l.add("engine.shard_imbalance", "ratio", 0, 0)
	l.add("engine.pending_events", "count", float64(m1.PendingEvents), 1)
	l.add("transport.bus_dropped", "count", float64(m1.BusDropped), 1)
	l.add("transport.bus_coalesced_ratio", "ratio", ratio(float64(m1.BusCoalesced-m0.BusCoalesced), float64(m1.BusPublished-m0.BusPublished)), int(m1.BusPublished-m0.BusPublished))
	l.add("seeder.migrations", "count", float64(m1.Migrations), 1)
	l.add("trace.host_ms_per_unit", "ms", 1000*wall/float64(len(cycles)), len(cycles))
	for i, name := range layers {
		out.extra.add(name+".cpu_ms_per_op", "ms", float64(cpu.ns[i])/1e6/float64(ops), ops)
	}
	return out, nil
}

func orCap(v, capMs float64) float64 {
	if math.IsInf(v, 1) {
		return capMs
	}
	return v
}
