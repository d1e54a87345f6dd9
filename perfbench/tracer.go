package main

import (
	"reflect"
	"runtime"
	"strings"
	"time"

	"farm/internal/engine"
)

// layers are the repository's modules, the unit every per-layer metric
// is reported in. "other" collects the Go runtime outside the collector,
// the standard library, and the benchmark's own code.
var layers = []string{
	"traffic", "fabric", "netmodel", "dataplane", "engine", "soil", "core",
	"almanac", "seeder", "placement", "lp", "harvest", "transport", "fleet",
	"metrics", "gc", "other",
}

// layerIndex maps a layer name to its position in layers.
var layerIndex = func() map[string]int {
	m := make(map[string]int, len(layers))
	for i, l := range layers {
		m[l] = i
	}
	return m
}()

const modulePrefix = "farm/internal/"

// layerOfFunc names the layer a function belongs to from its fully
// qualified name: the first path element under farm/internal, so
// "farm/internal/transport/bus.(*Broker).flush" is transport. Functions
// outside the module's internal packages are "other".
func layerOfFunc(name string) string {
	rest, ok := strings.CutPrefix(name, modulePrefix)
	if !ok {
		return "other"
	}
	if i := strings.IndexAny(rest, "/."); i >= 0 {
		rest = rest[:i]
	}
	if _, known := layerIndex[rest]; known {
		return rest
	}
	return "other"
}

// layerOfCode names the layer of the code a callback points at — the
// package that created the closure, which is the layer that scheduled
// it.
func layerOfCode(fn func()) string {
	f := runtime.FuncForPC(reflect.ValueOf(fn).Pointer())
	if f == nil {
		return "other"
	}
	return layerOfFunc(f.Name())
}

// eventLayers are the layers whose callbacks the event tracer reports
// separately; everything else is summed into "other".
var eventLayers = []string{"traffic", "fabric", "dataplane", "soil", "metrics", "other"}

// spanStats accumulates one layer's callback spans.
type spanStats struct {
	events uint64
	busy   time.Duration
}

// tracingScheduler is an engine.Scheduler decorator that times every
// callback it fires and charges the time to the layer that scheduled
// it. It changes no event order: At, After and Every delegate to the
// wrapped scheduler with the same times, in the same order, so the
// wrapped engine assigns the same sequence numbers.
type tracingScheduler struct {
	engine.Scheduler
	byPC    map[uintptr]int
	spans   []spanStats
	runSpan time.Duration // time inside RunUntil
}

func newTracingScheduler(inner engine.Scheduler) *tracingScheduler {
	return &tracingScheduler{
		Scheduler: inner,
		byPC:      make(map[uintptr]int),
		spans:     make([]spanStats, len(eventLayers)),
	}
}

// slot returns the eventLayers index for fn's code pointer, caching the
// symbol lookup per pointer.
func (t *tracingScheduler) slot(fn func()) int {
	pc := reflect.ValueOf(fn).Pointer()
	if i, ok := t.byPC[pc]; ok {
		return i
	}
	l := layerOfCode(fn)
	i := len(eventLayers) - 1
	for j, name := range eventLayers {
		if name == l {
			i = j
			break
		}
	}
	t.byPC[pc] = i
	return i
}

func (t *tracingScheduler) wrap(fn func()) func() {
	s := &t.spans[t.slot(fn)]
	return func() {
		start := time.Now()
		fn()
		s.busy += time.Since(start)
		s.events++
	}
}

func (t *tracingScheduler) At(at time.Duration, fn func()) engine.Timer {
	return t.Scheduler.At(at, t.wrap(fn))
}

func (t *tracingScheduler) After(d time.Duration, fn func()) engine.Timer {
	return t.Scheduler.After(d, t.wrap(fn))
}

func (t *tracingScheduler) Every(interval time.Duration, fn func()) engine.Ticker {
	return t.Scheduler.Every(interval, t.wrap(fn))
}

func (t *tracingScheduler) RunUntil(until time.Duration) {
	start := time.Now()
	t.Scheduler.RunUntil(until)
	t.runSpan += time.Since(start)
}

func (t *tracingScheduler) RunFor(d time.Duration) { t.RunUntil(t.Now() + d) }

// reset zeroes the counters, so a measured window excludes warm-up.
func (t *tracingScheduler) reset() {
	for i := range t.spans {
		t.spans[i] = spanStats{}
	}
	t.runSpan = 0
}
