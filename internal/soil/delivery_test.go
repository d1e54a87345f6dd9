package soil

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"farm/internal/almanac"
	"farm/internal/core"
	"farm/internal/dataplane"
	"farm/internal/engine"
	"farm/internal/fabric"
	"farm/internal/netmodel"
)

// watchSource is a poller of what. With mutate set, its handler
// assigns a field of every record it receives, so its machine has a
// struct field-assignment site and must get private records.
func watchSource(what string, ivalMs int, mutate bool) string {
	body := ""
	if mutate {
		typ, field := "PortStats", "rxBytes"
		if !strings.HasPrefix(what, "port") {
			typ, field = "RuleStats", "packets"
		}
		body = fmt.Sprintf(`
      long i = 0;
      while (i < list_len(recs)) {
        %s r = list_get(recs, i);
        r.%s = -1;
        i = i + 1;
      }`, typ, field)
	}
	return fmt.Sprintf(`
machine Watch {
  place all;
  poll p = Poll { .ival = %d, .what = %s };
  long polls;
  state s {
    util (res) { if (res.vCPU >= 0.01) then { return 1; } }
    when (p as recs) do {
      polls = polls + 1;%s
    }
  }
}
`, ivalMs, what, body)
}

// delivery is one poll list as a seed received it, with the oracle's
// rendering of what it should hold.
type delivery struct {
	recs core.List
	want string
}

// recorder wraps a deployed seed's runner. Before the seed sees a poll
// list, it checks the list element by element against records built
// from a per-seed previous-counter map. That map is the plain
// per-subscriber algorithm, kept here as the oracle.
type recorder struct {
	core.Runner
	t      *testing.T
	name   string
	sw     *dataplane.Switch
	port   int               // subject port; 0 means every port
	rule   *dataplane.Filter // rule subject instead of ports
	mutate bool
	prev   map[int]dataplane.PortStats
	prevR  dataplane.RuleStats
	got    []delivery
	failed bool
}

func (r *recorder) oracle() core.List {
	if r.rule != nil {
		cur, _ := r.sw.TCAM().Stats(*r.rule)
		want := core.List{core.RuleStatsRecord(cur, r.prevR)}
		r.prevR = cur
		return want
	}
	ports := []int{r.port}
	if r.port == 0 {
		ports = ports[:0]
		for p := 1; p <= r.sw.NumPorts(); p++ {
			ports = append(ports, p)
		}
	}
	want := core.List{}
	for _, p := range ports {
		cur, err := r.sw.PortStats(p)
		if err != nil {
			continue
		}
		want = append(want, core.PortStatsRecord(p, cur, r.prev[p]))
		r.prev[p] = cur
	}
	return want
}

func (r *recorder) HandleTrigger(varName string, data core.Value) error {
	recs, _ := data.(core.List)
	want := r.oracle()
	ok := len(recs) == len(want)
	for i := 0; ok && i < len(recs); i++ {
		ok = core.Equal(recs[i], want[i])
	}
	if !ok && !r.failed {
		r.failed = true
		r.t.Errorf("%s delivery %d:\n got  %s\n want %s", r.name, len(r.got), core.FormatValue(data), core.FormatValue(want))
	}
	r.got = append(r.got, delivery{recs: recs, want: core.FormatValue(want)})
	return r.Runner.HandleTrigger(varName, data)
}

// checkUnchanged re-renders every list the seed received: a list handed
// to a seed that cannot mutate records must still hold what the oracle
// said when it arrived.
func (r *recorder) checkUnchanged() {
	r.t.Helper()
	for i, d := range r.got {
		if got := core.FormatValue(d.recs); got != d.want {
			r.t.Fatalf("%s delivery %d changed after delivery:\n now  %s\n want %s", r.name, i, got, d.want)
		}
	}
}

type watchEnv struct {
	t    *testing.T
	s    *Soil
	sw   *dataplane.Switch
	cms  map[string]*almanac.CompiledMachine
	seq  int
	live map[string]*recorder
	all  []*recorder
}

func newWatchEnv(t *testing.T) (*watchEnv, func(time.Duration)) {
	fab, loop := testEnv(t)
	leaf := leafID(t, fab, "leaf0")
	s := New(fab, leaf, DefaultOptions())
	s.SetSendFunc(func(SeedRef, core.SendDest, core.Value) {})
	e := &watchEnv{t: t, s: s, sw: fab.Switch(leaf), cms: map[string]*almanac.CompiledMachine{}, live: map[string]*recorder{}}
	return e, func(d time.Duration) { loop.RunFor(d) }
}

// deploy adds a Watch seed on subject port (0: port ANY).
func (e *watchEnv) deploy(port, ivalMs int, mutate bool) *recorder {
	e.t.Helper()
	what := "port ANY"
	if port > 0 {
		what = fmt.Sprintf("port %d", port)
	}
	r := e.deployWhat(what, ivalMs, mutate)
	r.port = port
	return r
}

func (e *watchEnv) deployWhat(what string, ivalMs int, mutate bool) *recorder {
	e.t.Helper()
	src := watchSource(what, ivalMs, mutate)
	cm, ok := e.cms[src]
	if !ok {
		prog, err := almanac.Parse(src)
		if err != nil {
			e.t.Fatal(err)
		}
		if cm, err = almanac.CompileMachine(prog, "Watch"); err != nil {
			e.t.Fatal(err)
		}
		e.cms[src] = cm
	}
	e.seq++
	ref := SeedRef{Task: fmt.Sprintf("w%d", e.seq), Machine: "Watch", Switch: e.s.Name()}
	alloc := netmodel.Resources{netmodel.ResVCPU: 0.01, netmodel.ResRAM: 1, netmodel.ResPoll: 1}
	if err := e.s.DeployCompiled(ref, cm, nil, alloc); err != nil {
		e.t.Fatal(err)
	}
	rt := e.s.seeds[ref.ID()]
	if rt.mutates != mutate {
		e.t.Fatalf("%s: mutates = %v, want %v", ref.ID(), rt.mutates, mutate)
	}
	r := &recorder{Runner: rt.seed, t: e.t, name: ref.ID(), sw: e.sw, mutate: mutate, prev: map[int]dataplane.PortStats{}}
	rt.seed = r
	e.live[ref.ID()] = r
	e.all = append(e.all, r)
	return r
}

func (e *watchEnv) remove(r *recorder) {
	e.t.Helper()
	if err := e.s.Remove(r.name); err != nil {
		e.t.Fatal(err)
	}
	delete(e.live, r.name)
}

// credit puts traffic on a port of the watched switch.
func (e *watchEnv) credit(port int, bytes uint64) {
	if err := e.sw.CreditPort(port, bytes/100, bytes, bytes/200, bytes/2); err != nil {
		e.t.Fatal(err)
	}
}

// Randomized contract: pollers of a port ANY subject and of a
// single-port subject come and go at staggered times while traffic
// starts and stops. Every list each seed receives equals the per-seed
// oracle element by element, including the lists shared between seeds
// and reused across polls, and including after a sibling assigned a
// field of its own records.
func TestPollDeliveryMatchesPerSeedOracle(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4} {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			e, run := newWatchEnv(t)
			nports := e.sw.NumPorts()
			ivals := []int{3, 5, 7, 10}
			subject := func() int {
				if rng.Intn(2) == 0 {
					return 0
				}
				return 2
			}
			// At least three tasks from the start: two sharers on
			// different subjects and a field-assigning sibling.
			e.deploy(0, 5, false)
			e.deploy(0, 7, true)
			e.deploy(2, 3, false)
			busy := make([]bool, nports+1)
			busy[1] = true
			for ms := 0; ms < 1500; ms++ {
				switch x := rng.Intn(100); {
				case x < 3 && len(e.live) < 10:
					e.deploy(subject(), ivals[rng.Intn(len(ivals))], rng.Intn(3) == 0)
				case x < 5 && len(e.live) > 3:
					var names []string
					for _, r := range e.all {
						if e.live[r.name] != nil {
							names = append(names, r.name)
						}
					}
					e.remove(e.live[names[rng.Intn(len(names))]])
				case x < 10:
					p := 1 + rng.Intn(nports)
					busy[p] = !busy[p]
				}
				for p := 1; p <= nports; p++ {
					if busy[p] {
						e.credit(p, uint64(1000+rng.Intn(50_000)))
					}
				}
				run(time.Millisecond)
			}
			deliveries := 0
			for _, r := range e.all {
				deliveries += len(r.got)
				if !r.mutate {
					r.checkUnchanged()
				}
			}
			if deliveries < 500 {
				t.Fatalf("only %d deliveries; the run exercised too little", deliveries)
			}
		})
	}
}

// Rule-counter polls follow the same contract: staggered subscribers,
// one of them field-assigning, each see the per-seed oracle's single
// RuleStats record, and a shared record is never changed afterwards.
func TestRulePollDeliveryMatchesPerSeedOracle(t *testing.T) {
	e, run := newWatchEnv(t)
	rule := dataplane.Rule{Priority: 1, Filter: dataplane.Filter{DstPort: 80}, Action: dataplane.ActCount}
	if err := e.sw.TCAM().AddRule(rule); err != nil {
		t.Fatal(err)
	}
	var rs []*recorder
	add := func(ival int, mutate bool) {
		r := e.deployWhat("dstPort 80", ival, mutate)
		r.rule = &rule.Filter
		rs = append(rs, r)
	}
	add(5, false)
	for ms := 0; ms < 300; ms++ {
		switch ms {
		case 40:
			add(3, true)
		case 90:
			add(7, false)
		case 150:
			e.remove(rs[0])
		}
		if ms%50 < 30 {
			e.sw.CreditRule(rule.Filter, 2, 300)
		}
		run(time.Millisecond)
	}
	for _, r := range rs {
		if len(r.got) < 20 {
			t.Fatalf("%s got %d deliveries", r.name, len(r.got))
		}
		if !r.mutate {
			r.checkUnchanged()
		}
	}
}

// A seed that assigns a field of a received record changes only its own
// copy: neither its sharing siblings nor its own next delivery see the
// write.
func TestPollFieldAssignStaysPrivate(t *testing.T) {
	e, run := newWatchEnv(t)
	a := e.deploy(0, 5, false)
	m := e.deploy(0, 5, true)
	b := e.deploy(0, 5, false)
	for ms := 0; ms < 200; ms++ {
		if ms < 100 {
			e.credit(1, 10_000) // port 1 busy, then idle; the rest idle throughout
		}
		run(time.Millisecond)
	}
	if len(m.got) < 30 {
		t.Fatalf("mutator got %d deliveries, want ~40", len(m.got))
	}
	// The mutator did write: every list it holds now carries -1.
	for i, d := range m.got {
		for _, rec := range d.recs {
			if v, _ := rec.(core.StructVal).Get("rxBytes"); v != int64(-1) {
				t.Fatalf("mutator delivery %d: rxBytes = %v after its handler, want -1", i, v)
			}
		}
	}
	// ...yet the recorder saw each of its lists match the oracle on
	// arrival (no -1 carried over), and the siblings' lists are intact.
	a.checkUnchanged()
	b.checkUnchanged()
	// The siblings share one list per poll, and an idle switch reuses it.
	last := len(a.got) - 1
	if &a.got[last].recs[0] != &b.got[last].recs[0] {
		t.Fatal("sharing siblings received different lists for one poll")
	}
	if &a.got[last].recs[0] != &a.got[last-1].recs[0] {
		t.Fatal("an idle switch rebuilt its shared list")
	}
	if &m.got[last].recs[0] == &a.got[last].recs[0] {
		t.Fatal("the field-assigning seed received the shared list")
	}
}

// A subscriber joining a group that has polled for a while starts from
// zero counters: its first deltas equal the cumulative counters.
func TestPollLateJoinerDeltasAreCumulative(t *testing.T) {
	e, run := newWatchEnv(t)
	early := e.deploy(0, 10, false)
	for ms := 0; ms < 100; ms++ {
		e.credit(1, 5_000)
		e.credit(3, 7_000)
		run(time.Millisecond)
	}
	late := e.deploy(0, 10, false)
	run(10 * time.Millisecond)
	if len(late.got) == 0 {
		t.Fatal("late joiner got no delivery")
	}
	first := late.got[0].recs
	for _, rec := range first {
		sv := rec.(core.StructVal)
		for _, f := range []string{"rxBytes", "txBytes", "rxPkts", "txPkts"} {
			cum, _ := sv.Get(f)
			d, _ := sv.Get("d" + string(f[0]-'a'+'A') + f[1:])
			if d != cum {
				t.Fatalf("late joiner's first %s delta = %v, want cumulative %v", f, d, cum)
			}
		}
	}
	if tx, _ := first[0].(core.StructVal).Get("txBytes"); tx == int64(0) {
		t.Fatal("port 1 carried no traffic; the test proves nothing")
	}
	// The early subscriber, polled in the same round, got the deltas
	// since its previous poll.
	last := early.got[len(early.got)-1].recs[0].(core.StructVal)
	d, _ := last.Get("dTxBytes")
	cum, _ := last.Get("txBytes")
	if d.(int64) >= cum.(int64) {
		t.Fatalf("early subscriber's delta %v is not below the cumulative %v", d, cum)
	}
}

// sharingHH deploys n HH seeds on an idle leaf (the thresholds are out
// of reach) and warms the poll path up. It returns one poll interval's
// run.
func sharingHH(tb testing.TB, n int) (*Soil, func()) {
	topo, err := netmodel.SpineLeaf(netmodel.SpineLeafOptions{Spines: 1, Leaves: 2, HostsPerLeaf: 2})
	if err != nil {
		tb.Fatal(err)
	}
	loop := engine.NewSerial()
	fab := fabric.New(topo, loop, fabric.Options{})
	s := New(fab, topo.Switches()[1].ID, DefaultOptions())
	s.SetSendFunc(func(SeedRef, core.SendDest, core.Value) {})
	prog, err := almanac.Parse(hhSource)
	if err != nil {
		tb.Fatal(err)
	}
	cm, err := almanac.CompileMachine(prog, "HH")
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < n; i++ {
		ref := SeedRef{Task: fmt.Sprintf("hh%d", i), Machine: "HH", Switch: s.Name()}
		if err := s.DeployCompiled(ref, cm, map[string]core.Value{"threshold": int64(1_000_000_000)}, hhAlloc()); err != nil {
			tb.Fatal(err)
		}
	}
	poll := func() { loop.RunFor(10 * time.Millisecond) } // HH polls every 10/PCIe ms
	// Warm-up outlasts the ~1 s of polls a caller measures, so the
	// engine's timing-wheel slots they land in have grown to size.
	for i := 0; i < 150; i++ {
		poll()
	}
	return s, poll
}

// After warm-up, one poll of an idle switch carrying four HH seeds that
// share the poll allocates nothing: one counter read, one reused list.
func TestPollDeliveryAllocationFree(t *testing.T) {
	s, poll := sharingHH(t, 4)
	before := s.PollsDelivered()
	if allocs := testing.AllocsPerRun(100, poll); allocs != 0 {
		t.Fatalf("%v allocs per poll, want 0", allocs)
	}
	if got := s.PollsDelivered() - before; got != 4*101 {
		t.Fatalf("delivered %d polls, want %d", got, 4*101)
	}
}

// BenchmarkPollDeliver measures one poll of four sharing HH seeds, on
// an idle switch and with one port's counters moving every poll.
func BenchmarkPollDeliver(b *testing.B) {
	for _, busy := range []bool{false, true} {
		name := "idle"
		if busy {
			name = "one-port-busy"
		}
		b.Run(name, func(b *testing.B) {
			s, poll := sharingHH(b, 4)
			sw := s.driver.Switch()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if busy {
					_ = sw.CreditPort(1, 0, 0, 1, 1000)
				}
				poll()
			}
		})
	}
}
