package main

import (
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"runtime"
	"sort"
	"strings"
	"time"

	"farm/internal/core"
	"farm/internal/dataplane"
	"farm/internal/engine"
	"farm/internal/fabric"
	"farm/internal/harvest"
	"farm/internal/metrics"
	"farm/internal/netmodel"
	"farm/internal/seeder"
	"farm/internal/soil"
)

// A simulated workload runs on a virtual-time engine. Its inputs are a
// pure function of the seed and the simulated length, so everything it
// outputs in virtual time repeats bit for bit.

// buildOptions selects how one instance of a simulated workload is
// built. None of them may change what the instance outputs.
type buildOptions struct {
	trace  bool // wrap the serial engine in the event tracer
	labels bool // sharded executor: pprof phase labels
	small  bool // reduced size, for the serial-vs-sharded check
	serial bool // force the serial engine
}

// simSpec describes one simulated workload.
type simSpec struct {
	name string
	// simPerWall sizes a run: simulated seconds driven per requested
	// wall second. It is a constant, so the simulated length — and with
	// it every virtual-time output — depends only on --seconds.
	simPerWall float64
	// prefix is the warm-up driven before the measured window starts.
	prefix time.Duration
	// step is the simulated time advanced per latency sample: long
	// enough that every step holds the workload's periodic work.
	step time.Duration
	// build constructs an instance whose episode schedule covers
	// [0, end).
	build func(seed int64, end time.Duration, o buildOptions) (*simRun, error)
	// smallCheck, when set, compares a serial and a sharded run at
	// reduced size.
	smallCheck bool
}

// action is a driving-goroutine step at a virtual time: an attack
// starting or stopping, a churn epoch being sampled.
type action struct {
	at time.Duration
	fn func()
}

// simRun is one built instance.
type simRun struct {
	root    engine.Scheduler // what the benchmark drives
	tracer  *tracingScheduler
	sharded *engine.Sharded
	fab     *fabric.Fabric
	sd      *seeder.Seeder
	rec     *recorder
	acts    []action
	next    int
	// stops release generators and executors.
	stops []func()
	// addTaskMs times each seeder.AddTask call of the build.
	addTaskMs []float64
}

func (r *simRun) close() {
	for i := len(r.stops) - 1; i >= 0; i-- {
		r.stops[i]()
	}
	r.stops = nil
}

// addActions merges actions into the schedule, keeping it sorted by
// time and stable for equal times.
func (r *simRun) addActions(a ...action) {
	r.acts = append(r.acts, a...)
	sort.SliceStable(r.acts, func(i, j int) bool { return r.acts[i].at < r.acts[j].at })
}

// advance drives the engine to virtual time to, applying every action
// due on the way at its exact time.
func (r *simRun) advance(to time.Duration) {
	for r.next < len(r.acts) && r.acts[r.next].at <= to {
		a := r.acts[r.next]
		r.next++
		r.root.RunUntil(a.at)
		a.fn()
	}
	r.root.RunUntil(to)
}

// newEngine builds the root scheduler for a topology. Sharded runs use
// two workers (the container's core count) and one shard per switch.
func newEngine(topo *netmodel.Topology, sharded bool, o buildOptions) *simRun {
	r := &simRun{}
	if sharded && !o.serial {
		x := engine.NewSharded(engine.ShardedOptions{
			Shards:        topo.NumSwitches(),
			Workers:       2,
			Lookahead:     fabric.Options{}.MinCrossLatency(),
			ProfileLabels: o.labels,
		})
		r.sharded = x
		r.root = x
		r.stops = append(r.stops, x.Stop)
	} else {
		r.root = engine.NewSerial()
		if o.trace {
			r.tracer = newTracingScheduler(r.root)
			r.root = r.tracer
		}
	}
	r.fab = fabric.New(topo, r.root, fabric.Options{})
	return r
}

// --- the harvester report stream ---

// harvestReport is one harvester delivery.
type harvestReport struct {
	at  time.Duration
	sw  string
	val core.Value
}

// stream is one harvester's report stream. It keeps no report beyond
// the current virtual instant: each is folded into a running hash for
// the digest and offered to the episodes watching the stream, so the
// benchmark's memory does not grow with the number of reports.
type stream struct {
	hash  hash.Hash64
	count int
	// open are the undecided episodes that watch this stream.
	open []*scored
	// recent holds the reports delivered at the latest instant, so an
	// episode opened at that same instant still sees them.
	recent []harvestReport
}

// scored is an episode and its detection latency in ms, a miss until a
// matching report arrives.
type scored struct {
	ep      episode
	latency float64
}

// recorder wraps every task's harvester: it hashes the report stream
// for the digest, scores detection episodes as reports arrive, and
// (when tracing) times the task's own harvester logic.
type recorder struct {
	streams map[string]*stream
	order   []string // stream names in deployment order
	total   int
	scores  []*scored // every episode opened, in opening order
	// Spans around the inner OnSeedMessage calls.
	innerCalls int
	innerBusy  time.Duration
	trace      bool
}

func newRecorder(trace bool) *recorder {
	return &recorder{streams: map[string]*stream{}, trace: trace}
}

// stream returns the named stream, creating it in deployment order.
func (rc *recorder) stream(name string) *stream {
	s := rc.streams[name]
	if s == nil {
		s = &stream{hash: fnv.New64a()}
		rc.streams[name] = s
		rc.order = append(rc.order, name)
	}
	return s
}

// logic returns the harvester to deploy, wrapping inner. Reports are
// kept per stream; several tasks may share one.
func (rc *recorder) logic(name string, inner harvest.Logic) harvest.Logic {
	s := rc.stream(name)
	return harvest.FuncLogic{
		Start: func(ctx harvest.Context) {
			if inner != nil {
				inner.OnStart(ctx)
			}
		},
		Message: func(ctx harvest.Context, from soil.SeedRef, v core.Value) {
			rc.deliver(s, harvestReport{at: ctx.Now(), sw: from.Switch, val: v}, from.Machine)
			if inner == nil {
				return
			}
			if !rc.trace {
				inner.OnSeedMessage(ctx, from, v)
				return
			}
			start := time.Now()
			inner.OnSeedMessage(ctx, from, v)
			rc.innerBusy += time.Since(start)
			rc.innerCalls++
		},
	}
}

// deliver folds one report into its stream and scores the episodes it
// detects. Reports arrive in virtual-time order, so the first match is
// the earliest.
func (rc *recorder) deliver(s *stream, rep harvestReport, machine string) {
	fmt.Fprintf(s.hash, "%d|%s|%s|%s\n", rep.at, rep.sw, machine, core.FormatValue(rep.val))
	s.count++
	rc.total++
	if len(s.recent) > 0 && s.recent[0].at != rep.at {
		s.recent = s.recent[:0]
	}
	s.recent = append(s.recent, rep)
	kept := s.open[:0]
	for _, sc := range s.open {
		if !math.IsInf(sc.latency, 1) || rep.at > sc.ep.deadline {
			continue // decided, or past its deadline: a miss
		}
		if sc.ep.matches(rep) {
			sc.latency = float64(rep.at-sc.ep.start) / float64(time.Millisecond)
			continue
		}
		kept = append(kept, sc)
	}
	clear(s.open[len(kept):])
	s.open = kept
}

// open starts scoring an episode: the first report at or after its
// start, up to its deadline, on any of its streams detects it.
func (rc *recorder) open(ep episode) {
	sc := &scored{ep: ep, latency: miss}
	rc.scores = append(rc.scores, sc)
	for _, name := range ep.tasks {
		s := rc.streams[name]
		if s == nil {
			continue
		}
		for _, rep := range s.recent {
			if rep.at >= ep.start && rep.at <= ep.deadline && ep.matches(rep) {
				sc.latency = math.Min(sc.latency, float64(rep.at-ep.start)/float64(time.Millisecond))
			}
		}
		if math.IsInf(sc.latency, 1) {
			s.open = append(s.open, sc)
		}
	}
}

// results returns every opened episode and its latency, in opening
// order; an episode no report detected is a miss.
func (rc *recorder) results() ([]episode, sample) {
	eps := make([]episode, len(rc.scores))
	lat := make(sample, len(rc.scores))
	for i, sc := range rc.scores {
		eps[i], lat[i] = sc.ep, sc.latency
	}
	return eps, lat
}

// --- the output digest ---

// digest folds everything the instance has output so far: the hash of
// every harvester report stream, every seed's snapshot on every switch,
// the soils' poll and probe counters, and the fabric's delivery and
// drop totals.
func (r *simRun) digest() (string, error) {
	h := fnv.New64a()
	for _, name := range r.rec.order {
		s := r.rec.streams[name]
		fmt.Fprintf(h, "stream %s n=%d %016x\n", name, s.count, s.hash.Sum64())
	}
	sws := append([]netmodel.Switch(nil), r.fab.Topology().Switches()...)
	sort.Slice(sws, func(i, j int) bool { return sws[i].Name < sws[j].Name })
	for _, sw := range sws {
		s := r.sd.Soil(sw.ID)
		if s == nil {
			continue
		}
		fmt.Fprintf(h, "soil %s polls=%d/%d probes=%d\n", sw.Name, s.PollsIssued(), s.PollsDelivered(), s.ProbesDelivered())
		for _, id := range s.SeedIDs() {
			snap, err := s.SnapshotSeed(id)
			if err != nil {
				return "", fmt.Errorf("snapshot %s on %s: %w", id, sw.Name, err)
			}
			fmt.Fprintf(h, "seed %s/%s %s\n", sw.Name, id, snapString(snap))
		}
	}
	fmt.Fprintf(h, "delivered=%d dropped=%d central=%d\n", r.fab.Delivered(), r.fab.DroppedInFabric(), r.fab.CentralNet.Bytes())
	return fmt.Sprintf("%016x", h.Sum64()), nil
}

// snapString renders a seed snapshot with every map in key order.
func snapString(s core.Snapshot) string {
	var b strings.Builder
	fmt.Fprintf(&b, "state=%s", s.State)
	for _, k := range sortedKeys(s.Env) {
		fmt.Fprintf(&b, " %s=%s", k, core.FormatValue(s.Env[k]))
	}
	for _, st := range sortedKeys(s.StateVars) {
		vars := s.StateVars[st]
		for _, k := range sortedKeys(vars) {
			fmt.Fprintf(&b, " %s.%s=%s", st, k, core.FormatValue(vars[k]))
		}
	}
	return b.String()
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// --- detection episodes ---

// episode is one injected condition a task should report: an attack, a
// heavy-hitter flow, a port turning heavy.
type episode struct {
	// kind names the condition (an attack, a heavy flow, a churn).
	kind string
	// tasks are the report streams that can detect it.
	tasks []string
	// sw restricts matching reports to one switch ("" = any).
	sw string
	// key must appear in the report payload — equal to it, or an
	// element of a list payload ("" = any report of the task).
	key   string
	start time.Duration
	// deadline is the last virtual time a matching report counts.
	deadline time.Duration
}

// matches reports whether rep, delivered within the episode's interval,
// names the episode's switch and key.
func (ep *episode) matches(rep harvestReport) bool {
	return (ep.sw == "" || rep.sw == ep.sw) && (ep.key == "" || payloadHas(rep.val, ep.key))
}

// payloadHas reports whether v is key or a list holding key.
func payloadHas(v core.Value, key string) bool {
	if l, ok := v.(core.List); ok {
		for _, e := range l {
			if payloadHas(e, key) {
				return true
			}
		}
		return false
	}
	if s, ok := v.(string); ok {
		return s == key
	}
	return core.FormatValue(v) == key
}

// --- counters over a measured window ---

// simCounters is a snapshot of every cumulative counter the simulated
// workloads report on.
type simCounters struct {
	at                                  time.Duration
	delivered, dropped                  uint64
	centralBytes                        uint64
	cacheHits, cacheMiss                uint64
	sampleDrops                         uint64
	pollsIssued, pollsDelivered, probes uint64
	reports                             int
	epochs, shardRuns                   uint64
	cpu                                 map[netmodel.SwitchID]metrics.CPUSnapshot
	bus                                 map[netmodel.SwitchID]dataplane.BusSnapshot
	mem                                 memCounters
}

func (r *simRun) counters() simCounters {
	c := simCounters{
		delivered:    r.fab.Delivered(),
		dropped:      r.fab.DroppedInFabric(),
		centralBytes: r.fab.CentralNet.Bytes(),
		reports:      r.rec.total,
		cpu:          map[netmodel.SwitchID]metrics.CPUSnapshot{},
		bus:          map[netmodel.SwitchID]dataplane.BusSnapshot{},
	}
	for _, sw := range r.fab.Topology().Switches() {
		cs := r.fab.Switch(sw.ID).CacheStats()
		c.cacheHits += cs.Hits
		c.cacheMiss += cs.Misses
		if d := r.fab.Driver(sw.ID); d != nil {
			c.sampleDrops += d.SampleDrops()
			c.bus[sw.ID] = d.Bus().Snapshot()
		}
		c.cpu[sw.ID] = r.fab.CPU(sw.ID).Snapshot()
		if s := r.sd.Soil(sw.ID); s != nil {
			c.pollsIssued += s.PollsIssued()
			c.pollsDelivered += s.PollsDelivered()
			c.probes += s.ProbesDelivered()
		}
	}
	if r.sharded != nil {
		c.epochs, c.shardRuns = r.sharded.EpochStats()
	}
	c.mem = readMem()
	return c
}

// switchLoad returns the mean modelled switch CPU load since c, in
// percent of one core, and the mean PCIe bus utilization.
func (r *simRun) switchLoad(c simCounters) (cpuPct, pcie float64) {
	sws := r.fab.Topology().Switches()
	for _, sw := range sws {
		cpuPct += 100 * r.fab.CPU(sw.ID).LoadSince(c.cpu[sw.ID])
		if d := r.fab.Driver(sw.ID); d != nil {
			pcie += d.Bus().UtilizationSince(c.bus[sw.ID])
		}
	}
	n := float64(len(sws))
	return cpuPct / n, pcie / n
}

// --- running a simulated workload ---

// simResult is everything one run of a simulated workload measured.
type simResult struct {
	setups        []float64 // seconds per build
	simSeconds    float64
	wallSeconds   float64
	cpuSeconds    float64   // process CPU time over the window
	windows       []float64 // host seconds per simulated second, per window
	steps         sample    // host ms per simulated step
	digest        string
	checkDigest   string
	detect        sample // per episode, in eps order
	eps           []episode
	centralKBps   float64
	cpuPct        float64
	heapLiveMB    float64 // median live heap over the window's collections
	heapPeakMB    float64
	heapReadings  int
	before, after simCounters
	pcieUtil      float64
	tracer        *tracingScheduler
	rec           *recorder
	cpu           *cpuSplit
	setupCPU      *cpuSplit
	addTaskMs     []float64
	pending       int
	migrations    uint64
	imbalance     float64
	smallDigest   string
}

// window is the simulated time host cost is summed over.
const window = 500 * time.Millisecond

// checkLen is how far into the measured window the digest is compared
// with a second instance: long enough to hold churns and whole episodes
// on every workload.
const checkLen = 2 * time.Second

// A run builds its workload at least minBuilds times, and until the
// builds have taken setupBudget in all, so a fast build is sampled more
// often; the median build time is setup_s. The first build is the
// measured instance, the second the instance its digest is checked
// against, and the rest are closed as soon as they are built.
const (
	minBuilds   = 9
	setupBudget = 1500 * time.Millisecond
)

// moreBuilds reports whether set-up needs another sample.
func moreBuilds(setups []float64) bool {
	total := 0.0
	for _, v := range setups {
		total += v
	}
	return len(setups) < minBuilds || total < setupBudget.Seconds()
}

// timedBuild builds one instance after a collection, so every build
// starts from the same heap, and returns it with its build time.
func timedBuild(spec simSpec, seed int64, end time.Duration, o buildOptions) (*simRun, float64, error) {
	runtime.GC()
	start := time.Now()
	r, err := spec.build(seed, end, o)
	took := time.Since(start).Seconds()
	if err != nil {
		return nil, 0, fmt.Errorf("build %s: %w", spec.name, err)
	}
	return r, took, nil
}

func runSim(spec simSpec, seed int64, seconds int, trace bool) (*simResult, error) {
	res := &simResult{}
	simLen := time.Duration(float64(seconds) * spec.simPerWall * float64(time.Second)).Round(time.Second)
	end := spec.prefix + simLen
	checkAt := min(spec.prefix+checkLen, end)

	// The measured instance is built first, so nothing an earlier build
	// left behind counts in its heap. On a traced run its set-up is
	// profiled, its engine traced and its sharded phases labelled.
	var setupProf *cpuProfiler
	if trace {
		var err error
		if setupProf, err = startCPUProfile(); err != nil {
			return nil, err
		}
	}
	run, took, err := timedBuild(spec, seed, end, buildOptions{trace: trace, labels: trace})
	if setupProf != nil {
		split, perr := setupProf.stop()
		if err == nil {
			res.setupCPU, err = split, perr
		}
	}
	if err != nil {
		return nil, err
	}
	defer run.close()
	res.setups = append(res.setups, took)
	run.advance(spec.prefix)

	// The measured window.
	runtime.GC()
	heap := startHeapSampler()
	var prof *cpuProfiler
	if trace {
		if prof, err = startCPUProfile(); err != nil {
			heap.stop()
			return nil, err
		}
	}
	if run.tracer != nil {
		run.tracer.reset()
	}
	run.rec.innerBusy, run.rec.innerCalls = 0, 0
	res.before = run.counters()
	// The window is driven in steps of simulated time; each step's host
	// time is one latency sample, and steps are summed into windows whose
	// median is the host cost and whose first and last show drift. The
	// digest taken at checkAt is left out of every timing.
	var paused, pausedCPU time.Duration
	wallStart, cpuStart := time.Now(), processCPU()
	var inWindow time.Duration
	windowStart := spec.prefix
	for t := spec.prefix; t < end; t += spec.step {
		now := min(t+spec.step, end)
		ws := time.Now()
		run.advance(now)
		took := time.Since(ws)
		res.steps = append(res.steps, ms(took))
		inWindow += took
		if now-windowStart >= window || now == end {
			res.windows = append(res.windows, inWindow.Seconds()/(now-windowStart).Seconds())
			inWindow, windowStart = 0, now
		}
		if now == checkAt {
			ps, pc := time.Now(), processCPU()
			if res.checkDigest, err = run.digest(); err != nil {
				heap.stop()
				return nil, err
			}
			paused, pausedCPU = time.Since(ps), processCPU()-pc
		}
	}
	res.cpuSeconds = (processCPU() - cpuStart - pausedCPU).Seconds()
	res.wallSeconds = (time.Since(wallStart) - paused).Seconds()
	if prof != nil {
		if res.cpu, err = prof.stop(); err != nil {
			heap.stop()
			return nil, err
		}
	}
	res.heapLiveMB, res.heapPeakMB, res.heapReadings = heap.stop()
	res.after = run.counters()
	res.simSeconds = (end - spec.prefix).Seconds()
	res.centralKBps = float64(res.after.centralBytes-res.before.centralBytes) / 1024 / res.simSeconds
	res.cpuPct, res.pcieUtil = run.switchLoad(res.before)

	res.eps, res.detect = run.rec.results()
	if res.digest, err = run.digest(); err != nil {
		return nil, err
	}
	res.tracer = run.tracer
	res.rec = run.rec
	res.addTaskMs = run.addTaskMs
	res.pending = run.root.Pending()
	res.migrations = run.sd.Migrations()
	res.imbalance = run.fab.CentralNet.Imbalance()
	run.close()

	// A second instance, traced where the measured one was not (and the
	// other way round), must reach the same digest at checkAt.
	check, took, err := timedBuild(spec, seed, end, buildOptions{trace: !trace, labels: !trace})
	if err != nil {
		return nil, err
	}
	res.setups = append(res.setups, took)
	check.advance(checkAt)
	d, err := check.digest()
	check.close()
	if err != nil {
		return nil, err
	}
	if d != res.checkDigest {
		return nil, fmt.Errorf("%s: digest at %v is %s on the measured instance and %s on the check instance", spec.name, checkAt, res.checkDigest, d)
	}
	for moreBuilds(res.setups) {
		r, took, err := timedBuild(spec, seed, end, buildOptions{})
		if err != nil {
			return nil, err
		}
		r.close()
		res.setups = append(res.setups, took)
	}

	if spec.smallCheck {
		if res.smallDigest, err = smallSerialCheck(spec, seed); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// smallSerialCheck runs the workload at reduced size on the serial and
// the sharded engine; the two digests must be identical.
func smallSerialCheck(spec simSpec, seed int64) (string, error) {
	const simLen = 2 * time.Second
	var digests [2]string
	for i, serial := range []bool{true, false} {
		r, err := spec.build(seed, simLen, buildOptions{small: true, serial: serial})
		if err != nil {
			return "", fmt.Errorf("build %s (small): %w", spec.name, err)
		}
		r.advance(simLen)
		digests[i], err = r.digest()
		r.close()
		if err != nil {
			return "", err
		}
	}
	if digests[0] != digests[1] {
		return "", fmt.Errorf("%s: reduced-size serial digest %s differs from sharded %s", spec.name, digests[0], digests[1])
	}
	return digests[0], nil
}
