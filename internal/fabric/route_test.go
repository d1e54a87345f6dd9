package fabric

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"
	"time"

	"farm/internal/dataplane"
	"farm/internal/engine"
	"farm/internal/netmodel"
)

// routeTopologies are the fabrics the routing tests run on: a
// spine-leaf and two fat-trees (the k=8 one is fabric-flood's).
func routeTopologies(t *testing.T) map[string]*netmodel.Topology {
	t.Helper()
	sl, err := netmodel.SpineLeaf(netmodel.SpineLeafOptions{Spines: 4, Leaves: 6, HostsPerLeaf: 5})
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]*netmodel.Topology{"spine-leaf": sl}
	for _, k := range []int{4, 8} {
		ft, err := netmodel.FatTree(netmodel.FatTreeOptions{K: k})
		if err != nil {
			t.Fatal(err)
		}
		out[fmt.Sprintf("fat-tree-k%d", k)] = ft
	}
	return out
}

// randomPacket picks two hosts and a random 5-tuple between them.
func randomPacket(rng *rand.Rand, topo *netmodel.Topology) dataplane.Packet {
	hosts := topo.Hosts()
	protos := []dataplane.Proto{dataplane.ProtoTCP, dataplane.ProtoUDP, dataplane.ProtoICMP}
	return dataplane.Packet{
		SrcIP:   hosts[rng.Intn(len(hosts))].IP,
		DstIP:   hosts[rng.Intn(len(hosts))].IP,
		SrcPort: uint16(rng.Intn(1 << 16)),
		DstPort: uint16(rng.Intn(1 << 16)),
		Proto:   protos[rng.Intn(len(protos))],
		Size:    64 + rng.Intn(1400),
	}
}

// TestPathForMatchesTopologyPaths pins the ECMP table to the per-packet
// enumeration it replaces: for random flows, the table's path is the
// oracle Topology.Paths(src leaf, dst leaf)[flowHash % len].
func TestPathForMatchesTopologyPaths(t *testing.T) {
	for name, topo := range routeTopologies(t) {
		t.Run(name, func(t *testing.T) {
			f := New(topo, engine.NewSerial(), Options{})
			rng := rand.New(rand.NewSource(7))
			for i := 0; i < 3000; i++ {
				p := randomPacket(rng, topo)
				src, _ := topo.HostByIP(p.SrcIP)
				dst, _ := topo.HostByIP(p.DstIP)
				paths := topo.Paths(src.Leaf, dst.Leaf)
				want := paths[int(flowHash(p.Flow()))%len(paths)]
				got, err := f.PathFor(p)
				if err != nil {
					t.Fatal(err)
				}
				if got.Key() != want.Key() {
					t.Fatalf("flow %v: path %v, oracle %v", p.Flow(), got, want)
				}
			}
		})
	}
}

// TestSwitchLatencyMatchesPaths: the table- and BFS-backed hop counts
// give every switch pair exactly the latency the per-call path
// enumeration gave, including disconnected pairs (3 hops).
func TestSwitchLatencyMatchesPaths(t *testing.T) {
	topos := routeTopologies(t)
	delete(topos, "fat-tree-k8")
	island := netmodel.New()
	a := island.AddSwitch("a", netmodel.Leaf, nil)
	b := island.AddSwitch("b", netmodel.Spine, nil)
	island.AddSwitch("lone", netmodel.Leaf, nil)
	island.AddLink(a, b)
	for i := 0; i < 2; i++ {
		if _, err := island.AddHost(netmodel.SwitchID(2*i), HostIP(i, 0)); err != nil {
			t.Fatal(err)
		}
	}
	topos["disconnected"] = island
	for name, topo := range topos {
		t.Run(name, func(t *testing.T) {
			f := New(topo, engine.NewSerial(), Options{})
			for _, a := range topo.SwitchIDs() {
				for _, b := range topo.SwitchIDs() {
					want := DefaultControlBaseLatency / 2
					if a != b {
						hops := 3
						if paths := topo.Paths(a, b); len(paths) > 0 {
							hops = len(paths[0]) - 1
						}
						want = DefaultControlBaseLatency + time.Duration(hops)*DefaultHopLatency
					}
					if got := f.SwitchLatency(a, b); got != want {
						t.Fatalf("SwitchLatency(%d, %d) = %v, want %v", a, b, got, want)
					}
				}
			}
		})
	}
}

// TestSendAllocationFree: on the serial engine, once the hop-record
// pool, the event queue, and the flow caches are warm, sending packets
// and forwarding them to delivery allocates nothing.
func TestSendAllocationFree(t *testing.T) {
	for name, topo := range routeTopologies(t) {
		t.Run(name, func(t *testing.T) {
			loop := engine.NewSerial()
			f := New(topo, loop, Options{})
			rng := rand.New(rand.NewSource(11))
			pkts := make([]dataplane.Packet, 32)
			for i := range pkts {
				pkts[i] = randomPacket(rng, topo)
			}
			burst := func() {
				for _, p := range pkts {
					f.MustSend(p)
				}
				loop.RunFor(time.Millisecond)
			}
			// Warm-up spans a full rotation of the engine's timing wheel
			// (268 ms at level 1), so every wheel slot the bursts land in
			// has already grown to size.
			const warm = 300
			for i := 0; i < warm; i++ {
				burst()
			}
			if allocs := testing.AllocsPerRun(100, burst); allocs != 0 {
				t.Fatalf("%v allocs per burst of %d packets, want 0", allocs, len(pkts))
			}
			if got, want := f.Delivered(), uint64(len(pkts)*(warm+101)); got != want {
				t.Fatalf("delivered %d, want %d", got, want)
			}
		})
	}
}

// freeHops counts the pooled hop records across all shards.
func freeHops(f *Fabric) int {
	n := 0
	for i := range f.lanes {
		for h := f.lanes[i].free; h != nil; h = h.next {
			n++
		}
	}
	return n
}

// TestShardedECMPFillRace: on a sharded executor with a worker pool,
// every shard resolves the same cross-pod flows at the same instant —
// racing to fill the same ECMP slots — while packets cross the fabric.
// Every shard must see the serial run's paths, and every switch's port
// counters must match the serial run's. Run it under -race.
func TestShardedECMPFillRace(t *testing.T) {
	topo, err := netmodel.FatTree(netmodel.FatTreeOptions{K: 8})
	if err != nil {
		t.Fatal(err)
	}
	probe := crossPodPackets(8, 96)
	rng := rand.New(rand.NewSource(5))
	traffic := make([]dataplane.Packet, 2000)
	for i := range traffic {
		traffic[i] = randomPacket(rng, topo)
	}
	run := func(sched engine.Scheduler) (paths [][]string, perSwitch []uint64, delivered uint64) {
		f := New(topo, sched, Options{})
		paths = make([][]string, f.Partition().Shards())
		for s := range paths {
			s := s
			f.Partition().Shard(s).After(0, func() {
				for _, p := range probe {
					path, err := f.PathFor(p)
					if err != nil {
						panic(err)
					}
					paths[s] = append(paths[s], path.Key())
				}
			})
		}
		for i, p := range traffic {
			p := p
			src, _ := topo.HostByIP(p.SrcIP)
			f.SchedulerFor(src.Leaf).After(time.Duration(i%50)*time.Microsecond, func() { f.MustSend(p) })
		}
		sched.RunFor(10 * time.Millisecond)
		for _, sw := range topo.Switches() {
			h := fnv.New64a()
			for port := 1; port <= f.NumPorts(sw.ID); port++ {
				st, _ := f.Switch(sw.ID).PortStats(port)
				fmt.Fprintf(h, "%d:%+v;", port, st)
			}
			perSwitch = append(perSwitch, h.Sum64())
		}
		return paths, perSwitch, f.Delivered()
	}
	wantPaths, wantSwitches, wantDelivered := run(engine.NewSerial())
	x := engine.NewSharded(engine.ShardedOptions{Shards: 16, Workers: 4, ForceWorkers: true})
	defer x.Stop()
	gotPaths, gotSwitches, gotDelivered := run(x)
	if gotDelivered != wantDelivered || wantDelivered != uint64(len(traffic)) {
		t.Fatalf("delivered sharded=%d serial=%d, want %d", gotDelivered, wantDelivered, len(traffic))
	}
	for s, paths := range gotPaths {
		if fmt.Sprint(paths) != fmt.Sprint(wantPaths[0]) {
			t.Fatalf("shard %d resolved different paths than the serial run", s)
		}
	}
	for i := range wantSwitches {
		if gotSwitches[i] != wantSwitches[i] {
			t.Fatalf("switch %s: sharded port digest %x, serial %x", topo.Switch(netmodel.SwitchID(i)).Name, gotSwitches[i], wantSwitches[i])
		}
	}
}
