package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"farm/internal/core"
	"farm/internal/dataplane"
	"farm/internal/harvest"
	"farm/internal/netmodel"
	"farm/internal/seeder"
	"farm/internal/tasks"
	"farm/internal/traffic"
)

// dcCapacity is a data-center-scale switch resource model, wide enough
// for the whole Tab. I catalogue on every switch at once (the default
// AS5712-class models hold only a few tasks).
func dcCapacity() netmodel.Resources {
	return netmodel.Resources{
		netmodel.ResVCPU: 128,
		netmodel.ResRAM:  1 << 17,
		netmodel.ResTCAM: 1 << 14,
		netmodel.ResPCIe: 512,
		netmodel.ResPoll: 1e6,
	}
}

// seedRand derives an independent deterministic source for one use of
// the workload seed.
func seedRand(seed int64, stream int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + stream))
}

// between draws a duration uniformly from [lo, hi), in microseconds.
func between(rng *rand.Rand, lo, hi time.Duration) time.Duration {
	return lo + time.Duration(rng.Int63n(int64((hi-lo)/time.Microsecond)))*time.Microsecond
}

// addTask deploys one task and times the seeder call.
func (r *simRun) addTask(spec seeder.TaskSpec) error {
	start := time.Now()
	err := r.sd.AddTask(spec)
	r.addTaskMs = append(r.addTaskMs, float64(time.Since(start).Nanoseconds())/1e6)
	if err != nil {
		return fmt.Errorf("add task %s: %w", spec.Name, err)
	}
	return nil
}

// lane runs episodes one after another: each starts a generator, runs
// it for an on-period, stops it, and rests for an off-period before the
// next. The periods are fixed and only the lane's phase comes from the
// seed, so every seed offers the same load; episodes are only scheduled
// if they end a grace period before the run does, so every one of them
// can be scored.
type lane struct {
	phase   time.Duration
	on, off time.Duration
	grace   time.Duration
	startFn func() (stop func(), ep episode)
}

// scheduleLane adds the lane's start and stop actions over [0, end);
// each start opens its episode in the recorder.
func (r *simRun) scheduleLane(l lane, end time.Duration) {
	t := l.phase
	for {
		if t+l.on+l.grace > end {
			return
		}
		start, stopAt, next := t, t+l.on, t+l.on+l.off
		var stop func()
		r.addActions(
			action{at: start, fn: func() {
				var ep episode
				stop, ep = l.startFn()
				ep.start = start
				ep.deadline = min(stopAt+l.grace, next)
				r.rec.open(ep)
			}},
			action{at: stopAt, fn: func() { stop() }},
		)
		t = next
	}
}

// hostPool hands out hosts in a seeded order, wrapping around once all
// have been used.
type hostPool struct {
	hosts []netmodel.Host
	next  int
}

func newHostPool(hosts []netmodel.Host, rng *rand.Rand) *hostPool {
	p := &hostPool{}
	for _, i := range rng.Perm(len(hosts)) {
		p.hosts = append(p.hosts, hosts[i])
	}
	return p
}

func (p *hostPool) take() netmodel.Host {
	h := p.hosts[p.next%len(p.hosts)]
	p.next++
	return h
}

// --- catalogue-attack ---

// catalogueAttack co-deploys every Tab. I task on a spine-leaf under
// bulk port counters and runs the six attack generators as on/off
// episodes. Victims come from per-kind pools and are reused once a pool
// runs out.
var catalogueAttack = simSpec{
	name:       "catalogue-attack",
	simPerWall: 0.9,
	prefix:     500 * time.Millisecond,
	step:       5 * time.Millisecond,
	build:      buildCatalogue,
}

func buildCatalogue(seed int64, end time.Duration, o buildOptions) (*simRun, error) {
	topo, err := netmodel.SpineLeaf(netmodel.SpineLeafOptions{
		Spines: 2, Leaves: 6, HostsPerLeaf: 16,
		LeafCapacity: dcCapacity(), SpineCapacity: dcCapacity(),
	})
	if err != nil {
		return nil, err
	}
	r := newEngine(topo, false, o)
	r.sd = seeder.New(r.fab, seeder.Options{})
	r.rec = newRecorder(o.trace)
	for _, d := range tasks.All() {
		var inner harvest.Logic
		if d.NewHarvester != nil {
			inner = d.NewHarvester()
		}
		if err := r.addTask(seeder.TaskSpec{
			Name: d.Name, Source: d.Source, Machines: d.Machines,
			Externals: d.DefaultExternals,
			Harvester: r.rec.logic(d.Name, inner),
		}); err != nil {
			return nil, err
		}
	}
	bulk := traffic.NewBulkWorkload(r.fab, traffic.BulkConfig{
		Tick: 10 * time.Millisecond, HeavyRatio: 0.1, Churn: time.Second, Seed: seed,
	})
	r.stops = append(r.stops, bulk.Stop)

	gen := traffic.NewGenerator(r.fab, seed)
	// Seeds hold a TCAM budget of a few entries, and a detection spends
	// one on its mitigation rule. The SYN-flood, DDoS and DNS tasks take
	// an operator release message, so each of those episodes ends with
	// one; their victims come from pools of their own, so a host under a
	// flood's drop rule is never another kind's target. The port-scan, SSH
	// and Slowloris tasks have no release, and their misses show in the
	// per-kind detect ratios.
	perm := newHostPool(topo.Hosts(), seedRand(seed, 1)).hosts
	synVictims := &hostPool{hosts: perm[:40]}
	dnsVictims := &hostPool{hosts: perm[40:56]}
	others := &hostPool{hosts: perm[56:]}
	release := func(task, machine string, victim netmodel.Host) func() {
		return func() { _ = r.sd.BroadcastToTask(task, machine, victim.IP.String()) }
	}
	leafOf := func(h netmodel.Host) string { return topo.Switch(h.Leaf).Name }
	then := func(fns ...func()) func() {
		return func() {
			for _, fn := range fns {
				fn()
			}
		}
	}
	// Each kind names the tasks that report it and the address their
	// report carries. DNS and Slowloris reports carry source lists the
	// generator picks, so those lanes match any report of their task and
	// run one episode at a time.
	kinds := []struct {
		lanes int
		start func() (func(), episode)
	}{
		{1, func() (func(), episode) {
			v := synVictims.take()
			stop := then(gen.SYNFlood(v.IP, 8, 1000), release("ddos", "DDoS", v), release("syn-flood", "SYNFlood", v))
			return stop, episode{kind: "syn-flood", tasks: []string{"syn-flood", "ddos"}, key: v.IP.String()}
		}},
		{3, func() (func(), episode) {
			s := others.take()
			return gen.SuperSpreader(s.IP, 16, 150), episode{kind: "superspreader", tasks: []string{"superspreader"}, key: s.IP.String()}
		}},
		{2, func() (func(), episode) {
			v := dnsVictims.take()
			stop := then(gen.DNSReflection(v.IP, 4, 400), release("dns-reflection", "DNSReflect", v))
			return stop, episode{kind: "dns-reflection", tasks: []string{"dns-reflection"}, sw: leafOf(v)}
		}},
		{1, func() (func(), episode) {
			s, v := others.take(), others.take()
			return gen.PortScan(s.IP, v.IP, 200), episode{kind: "port-scan", tasks: []string{"port-scan"}, key: s.IP.String()}
		}},
		{1, func() (func(), episode) {
			s, v := others.take(), others.take()
			return gen.SSHBruteForce(s.IP, v.IP, 100), episode{kind: "ssh-brute", tasks: []string{"ssh-brute"}, key: s.IP.String()}
		}},
		{2, func() (func(), episode) {
			v := others.take()
			return gen.Slowloris(v.IP, 12, 20), episode{kind: "slowloris", tasks: []string{"slowloris"}, sw: leafOf(v)}
		}},
	}
	n := int64(0)
	for _, k := range kinds {
		for i := 0; i < k.lanes; i++ {
			n++
			r.scheduleLane(lane{
				phase: between(seedRand(seed, 100+n), 0, 850*time.Millisecond),
				on:    450 * time.Millisecond, off: 400 * time.Millisecond,
				grace:   time.Second,
				startFn: k.start,
			}, end)
		}
	}
	return r, nil
}

// --- fabric-flood ---

// fabricFlood drives many-flow attack traffic across the pods of a k=8
// fat-tree with only the heavy-hitter task deployed, so the packet path
// (routing, classification, delivery) dominates and seeds are light.
// Heavy-hitter episodes are single heavy flows toward a host; the
// matching report is the one from that host's edge switch naming its
// port. The task runs without its adaptive harvester, which would raise
// the threshold network-wide and end detection partway through a run.
var fabricFlood = simSpec{
	name:       "fabric-flood",
	simPerWall: 0.5,
	prefix:     500 * time.Millisecond,
	step:       5 * time.Millisecond,
	build:      buildFlood,
}

// floodThreshold is the heavy-hitter threshold in bytes per poll
// interval.
const floodThreshold = 8_000

func buildFlood(seed int64, end time.Duration, o buildOptions) (*simRun, error) {
	topo, err := netmodel.FatTree(netmodel.FatTreeOptions{K: 8, HostsPerEdge: 4})
	if err != nil {
		return nil, err
	}
	r := newEngine(topo, false, o)
	r.sd = seeder.New(r.fab, seeder.Options{})
	r.rec = newRecorder(o.trace)
	d, err := tasks.ByName("hh")
	if err != nil {
		return nil, err
	}
	if err := r.addTask(seeder.TaskSpec{
		Name: d.Name, Source: d.Source, Machines: d.Machines,
		Externals: map[string]map[string]core.Value{"HH": {"threshold": int64(floodThreshold)}},
		Harvester: r.rec.logic(d.Name, nil),
	}); err != nil {
		return nil, err
	}

	gen := traffic.NewGenerator(r.fab, seed)
	hosts := topo.Hosts()
	rng := seedRand(seed, 1)
	// Background: SYN floods from hosts all over the fabric toward
	// targets in every pod.
	for i := 0; i < 8; i++ {
		target := hosts[(i*len(hosts)/8+rng.Intn(len(hosts)/8))%len(hosts)]
		r.stops = append(r.stops, gen.SYNFlood(target.IP, 32, 4800))
	}
	victims := newHostPool(hosts, seedRand(seed, 2))
	for i := int64(0); i < 16; i++ {
		r.scheduleLane(lane{
			phase: between(seedRand(seed, 100+i), 0, 700*time.Millisecond),
			on:    400 * time.Millisecond, off: 300 * time.Millisecond,
			grace: 300 * time.Millisecond,
			startFn: func() (func(), episode) {
				v := victims.take()
				src := hosts[rng.Intn(len(hosts))]
				for src.Leaf == v.Leaf {
					src = hosts[rng.Intn(len(hosts))]
				}
				port, _ := r.fab.HostPort(v.Leaf, v.ID)
				stop := gen.StartFlow(traffic.FlowSpec{
					Src: src.IP, Dst: v.IP,
					SrcPort: uint16(10000 + rng.Intn(50000)), DstPort: 5001,
					Proto: dataplane.ProtoUDP, PacketSize: 9000, Rate: 600,
				})
				return stop, episode{kind: "hh", tasks: []string{d.Name}, sw: topo.Switch(v.Leaf).Name, key: strconv.Itoa(port)}
			},
		}, end)
	}
	return r, nil
}

// --- fat-tree-poll ---

// fatTreeHH is the change-report heavy-hitter seed of the large-fabric
// polling pipeline, parameterized by task index so staggered copies
// poll at different intervals.
const fatTreeHH = `
machine HHDelta%d {
  place all;
  poll pollStats = Poll { .ival = %d, .what = port ANY };
  external long threshold;
  list hitters;
  list reported;

  state observe {
    when (pollStats as stats) do {
      hitters = getHH(stats, threshold);
      if (hitters <> reported) then {
        send hitters to harvester;
        reported = hitters;
      }
    }
  }
}
`

// fatTreePoll is the 500-switch polling pipeline on the sharded
// executor: four staggered heavy-hitter tasks on every switch over bulk
// port counters whose heavy set churns. It has no packets. An episode
// is a port turning heavy at a churn.
var fatTreePoll = simSpec{
	name:       "fat-tree-poll",
	simPerWall: 0.5,
	prefix:     500 * time.Millisecond,
	step:       20 * time.Millisecond,
	build:      buildFatTreePoll,
	smallCheck: true,
}

func buildFatTreePoll(seed int64, end time.Duration, o buildOptions) (*simRun, error) {
	k := 20
	if o.small {
		k = 8
	}
	topo, err := netmodel.FatTree(netmodel.FatTreeOptions{K: k, HostsPerEdge: 4})
	if err != nil {
		return nil, err
	}
	r := newEngine(topo, true, o)
	r.sd = seeder.New(r.fab, seeder.Options{})
	r.rec = newRecorder(o.trace)
	// Churns fall on whole seconds; the seed shifts when the seeds start
	// polling, so churns meet the polls at a different phase per seed.
	r.root.RunUntil(between(seedRand(seed, 1), 0, 13*time.Millisecond))
	for i := 0; i < 4; i++ {
		machine := fmt.Sprintf("HHDelta%d", i)
		if err := r.addTask(seeder.TaskSpec{
			Name:      fmt.Sprintf("hh%d", i),
			Source:    fmt.Sprintf(fatTreeHH, i, 10+i),
			Externals: map[string]map[string]core.Value{machine: {"threshold": int64(400_000)}},
			Harvester: r.rec.logic("hh", nil),
		}); err != nil {
			return nil, err
		}
	}
	const churn = time.Second
	bulk := traffic.NewBulkWorkload(r.fab, traffic.BulkConfig{
		Tick: 10 * time.Millisecond, BaseRate: 1e5, HeavyRate: 5e7,
		HeavyRatio: 0.05, Churn: churn, Seed: seed,
	})
	r.stops = append(r.stops, bulk.Stop)

	heavy := map[traffic.PortLoad]bool{}
	for _, p := range bulk.HeavyPorts() {
		heavy[p] = true
	}
	for at := churn; at < end; at += churn {
		r.addActions(action{at: at, fn: func() {
			now := map[traffic.PortLoad]bool{}
			for _, p := range bulk.HeavyPorts() {
				now[p] = true
				if !heavy[p] {
					r.rec.open(episode{
						kind: "hh-churn", tasks: []string{"hh"}, sw: topo.Switch(p.Switch).Name, key: strconv.Itoa(p.Port),
						start: at, deadline: min(at+churn, end),
					})
				}
			}
			heavy = now
		}})
	}
	return r, nil
}
