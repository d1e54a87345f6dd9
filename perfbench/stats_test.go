package main

import (
	"math"
	"testing"

	"farm/internal/core"
)

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0},
		{19, 0},
		{20, 50},
		{99, 50},
		{100, 90},
		{999, 90},
		{1000, 99},
		{9999, 99},
		{10000, 99.9},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := sample{}
	for i := 100; i >= 1; i-- {
		s = append(s, float64(i))
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {100, 100}, {1, 1}} {
		if got := s.percentile(c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if s[0] != 100 {
		t.Error("percentile reordered its input")
	}
	if !math.IsNaN(sample{}.percentile(50)) {
		t.Error("percentile of an empty sample should be NaN")
	}
}

// Undetected episodes are misses: they rank above every detection, so
// they push the percentiles up instead of being dropped.
func TestMissesCountAgainstPercentiles(t *testing.T) {
	var s sample
	for i := 1; i <= 95; i++ {
		s = append(s, float64(i))
	}
	for i := 0; i < 5; i++ {
		s = append(s, miss)
	}
	if got := s.misses(); got != 5 {
		t.Fatalf("misses = %d, want 5", got)
	}
	if got := s.percentile(50); got != 50 {
		t.Errorf("p50 = %v, want 50", got)
	}
	if got := s.percentile(90); got != 90 {
		t.Errorf("p90 = %v, want 90", got)
	}
	if got := s.percentile(99); !math.IsInf(got, 1) {
		t.Errorf("p99 = %v, want a miss", got)
	}
	if got := detectedShare(s); got != 0.95 {
		t.Errorf("detected share = %v, want 0.95", got)
	}
}

// The recorder scores episodes as reports arrive: the first report at or
// after an episode's start, up to its deadline, that names its switch
// and key detects it; anything else leaves it a miss.
func TestRecorderScoresEpisodes(t *testing.T) {
	rec := newRecorder(false)
	ps, hh := rec.stream("port-scan"), rec.stream("hh")
	deliver := func(s *stream, at float64, sw string, v core.Value) {
		rec.deliver(s, harvestReport{at: ms2d(at), sw: sw, val: v}, "M")
	}
	rec.open(episode{tasks: []string{"hh"}, sw: "leaf3", key: "5", start: ms2d(10), deadline: ms2d(100)})
	rec.open(episode{tasks: []string{"hh"}, sw: "leaf3", key: "4", start: ms2d(10), deadline: ms2d(100)})
	deliver(hh, 30, "leaf2", listOf(int64(3), int64(4))) // key 4, but on another switch
	deliver(hh, 35, "leaf3", listOf(int64(5)))
	rec.open(episode{tasks: []string{"missing", "port-scan"}, start: ms2d(50), deadline: ms2d(500)})
	deliver(ps, 100, "leaf0", "10.0.0.9")
	rec.open(episode{tasks: []string{"port-scan"}, key: "10.0.0.7", start: ms2d(120), deadline: ms2d(500)})
	rec.open(episode{tasks: []string{"port-scan"}, key: "10.0.0.8", start: ms2d(120), deadline: ms2d(500)})
	deliver(ps, 140, "leaf1", "10.0.0.7")
	deliver(ps, 900, "leaf1", "10.0.0.8") // after the deadline
	// An episode opened at the instant of a matching report still sees it.
	rec.open(episode{tasks: []string{"port-scan"}, key: "10.0.0.8", start: ms2d(900), deadline: ms2d(1000)})

	_, got := rec.results()
	want := []float64{25, miss, 50, 20, miss, 0}
	if len(got) != len(want) {
		t.Fatalf("%d episodes scored, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("episode %d: latency %v, want %v", i, got[i], want[i])
		}
	}
	// Nothing is kept beyond the latest instant and the open episodes.
	if len(ps.recent) != 1 || len(ps.open) != 0 || len(hh.open) != 1 {
		t.Errorf("recent %d, open %d/%d; want 1, 0/1", len(ps.recent), len(ps.open), len(hh.open))
	}
	if rec.total != 5 || ps.count != 3 || hh.count != 2 {
		t.Errorf("counted %d reports (%d/%d), want 5 (3/2)", rec.total, ps.count, hh.count)
	}
}
