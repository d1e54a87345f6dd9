package main

import (
	"testing"
	"time"

	"farm/internal/core"
	"farm/internal/engine"
	"farm/internal/netmodel"
	"farm/internal/traffic"
)

func ms2d(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }

func listOf(vs ...core.Value) core.List { return core.List(vs) }

func TestLayerOfFunc(t *testing.T) {
	for name, want := range map[string]string{
		"farm/internal/fabric.(*Fabric).Send.func1":      "fabric",
		"farm/internal/transport/bus.(*Broker).flush-fm": "transport",
		"farm/internal/core.(*rvmSeed).run":              "core",
		"farm/internal/engine.EveryOn.func1":             "engine",
		"farm/internal/experiments.SeedPath":             "other",
		"farm/perfbench.main":                            "other",
		"runtime.mallocgc":                               "other",
		"farm/internal/dataplane":                        "dataplane",
	} {
		if got := layerOfFunc(name); got != want {
			t.Errorf("layerOfFunc(%q) = %q, want %q", name, got, want)
		}
	}
}

// The layer of a callback is the package its code lives in, so a
// method value of a traffic type is charged to traffic and a closure
// the benchmark builds is charged to other.
func TestLayerOfCode(t *testing.T) {
	topo, err := netmodel.SpineLeaf(netmodel.SpineLeafOptions{Spines: 1, Leaves: 1, HostsPerLeaf: 2})
	if err != nil {
		t.Fatal(err)
	}
	r := newEngine(topo, false, buildOptions{})
	bulk := traffic.NewBulkWorkload(r.fab, traffic.BulkConfig{Seed: 1})
	x := engine.NewSharded(engine.ShardedOptions{Shards: 2, Workers: 1})
	defer x.Stop()
	for want, fn := range map[string]func(){
		"traffic": bulk.Stop,
		"engine":  x.Stop,
		"other":   func() {},
	} {
		if got := layerOfCode(fn); got != want {
			t.Errorf("layerOfCode = %q, want %q", got, want)
		}
	}
}

// The event tracer wraps callbacks but must not change event order, so
// a traced instance produces the same digest as a plain one, and two
// plain instances agree with each other.
func TestTracerLeavesDigestUnchanged(t *testing.T) {
	const seed = 3
	const simLen = 1500 * time.Millisecond
	for _, spec := range []simSpec{catalogueAttack, fabricFlood} {
		var digests []string
		for _, o := range []buildOptions{{}, {trace: true}, {}} {
			r, err := spec.build(seed, simLen, o)
			if err != nil {
				t.Fatalf("%s: %v", spec.name, err)
			}
			r.advance(simLen)
			d, err := r.digest()
			r.close()
			if err != nil {
				t.Fatalf("%s: %v", spec.name, err)
			}
			if o.trace && r.tracer.spans[0].events == 0 {
				t.Fatalf("%s: the tracer saw no traffic events", spec.name)
			}
			digests = append(digests, d)
		}
		if digests[0] != digests[1] || digests[0] != digests[2] {
			t.Errorf("%s: digests plain/traced/plain = %v", spec.name, digests)
		}
	}
}

func TestSmallFatTreeSerialMatchesSharded(t *testing.T) {
	if _, err := smallSerialCheck(fatTreePoll, 5); err != nil {
		t.Fatal(err)
	}
}
