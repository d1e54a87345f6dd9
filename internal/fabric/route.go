package fabric

import (
	"fmt"
	"net/netip"
	"sync/atomic"

	"farm/internal/dataplane"
	"farm/internal/netmodel"
)

// hopInfo is one hop of a routed ECMP path: the switch, its home shard,
// and the ports a packet enters and leaves by. The first hop's in-port
// and the last hop's out-port face hosts, so they are zero here and come
// from the packet's endpoints.
type hopInfo struct {
	sw, in, out, shard int32
}

// ecmpSet is one slot of the ECMP table: every path between a (src
// leaf, dst leaf) pair, exactly as Topology.Paths enumerates them —
// same order, same cap — so flowHash % n picks the path the per-packet
// enumeration used to pick. Shortest paths all have the same length, so
// the paths sit back to back in one slab.
type ecmpSet struct {
	hops []hopInfo // path i is hops[i*plen : (i+1)*plen]
	n    int       // number of paths; 0 when the pair is disconnected
	plen int       // switches per path
}

// route returns path i's hops.
func (s *ecmpSet) route(i int) []hopInfo {
	return s.hops[i*s.plen : (i+1)*s.plen : (i+1)*s.plen]
}

// ecmpRow holds one source leaf's slots, indexed by destination leaf
// ordinal.
type ecmpRow []atomic.Pointer[ecmpSet]

// ecmpFor returns the ECMP slot for a pair of leaf ordinals, filling it
// on first use. A slot, like a source leaf's row, is published with a
// compare-and-swap: shards racing on one pair compute the same immutable
// value and all adopt the first one stored, so no lock is needed.
func (f *Fabric) ecmpFor(src, dst int32) *ecmpSet {
	row := f.ecmp[src].Load()
	if row == nil {
		fresh := make(ecmpRow, len(f.leaves))
		if !f.ecmp[src].CompareAndSwap(nil, &fresh) {
			row = f.ecmp[src].Load()
		} else {
			row = &fresh
		}
	}
	slot := &(*row)[dst]
	if set := slot.Load(); set != nil {
		return set
	}
	set := f.buildECMP(f.leaves[src], f.leaves[dst])
	if !slot.CompareAndSwap(nil, set) {
		return slot.Load()
	}
	return set
}

// buildECMP enumerates the paths between two switches and resolves
// each hop's ports and home shard.
func (f *Fabric) buildECMP(src, dst netmodel.SwitchID) *ecmpSet {
	paths := f.topo.Paths(src, dst)
	set := &ecmpSet{n: len(paths)}
	if len(paths) == 0 {
		return set
	}
	set.plen = len(paths[0])
	set.hops = make([]hopInfo, 0, len(paths)*set.plen)
	for _, path := range paths {
		for j, sw := range path {
			h := hopInfo{sw: int32(sw), shard: int32(f.shardOf[sw])}
			if j > 0 {
				h.in = int32(f.swPorts[sw][path[j-1]])
			}
			if j < len(path)-1 {
				h.out = int32(f.swPorts[sw][path[j+1]])
			}
			set.hops = append(set.hops, h)
		}
	}
	return set
}

// hopCount returns the shortest-path hop count between two switches,
// or -1 when they are disconnected. Leaf pairs read it from the ECMP
// table; other pairs run a BFS.
func (f *Fabric) hopCount(a, b netmodel.SwitchID) int {
	n := len(f.leafOrd)
	if a < 0 || b < 0 || int(a) >= n || int(b) >= n {
		return -1
	}
	if la, lb := f.leafOrd[a], f.leafOrd[b]; la >= 0 && lb >= 0 {
		return f.ecmpFor(la, lb).plen - 1
	}
	dist := make([]int, n) // hops+1; 0 means unseen
	dist[a] = 1
	queue := []netmodel.SwitchID{a}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, nb := range f.topo.Neighbors(cur) {
			if dist[nb] == 0 {
				if nb == b {
					return dist[cur]
				}
				dist[nb] = dist[cur] + 1
				queue = append(queue, nb)
			}
		}
	}
	return -1
}

// endpoint is a host as the packet path sees it: its leaf ordinal and
// the leaf port it attaches to.
type endpoint struct {
	leaf int32
	port int32
}

// endpointOf resolves a packet address to its host's endpoint; dir
// names the address in errors.
func (f *Fabric) endpointOf(addr netip.Addr, dir string) (endpoint, error) {
	h, ok := f.topo.HostByIP(addr)
	if !ok {
		return endpoint{}, fmt.Errorf("fabric: unknown %s host %v", dir, addr)
	}
	// Ports are 1-based, so port 0 marks a host New never attached: one
	// added later, or one on a switch the topology does not have.
	if int(h.ID) >= len(f.hosts) || f.hosts[h.ID].port == 0 {
		return endpoint{}, fmt.Errorf("fabric: %s host %v was not attached to a switch when fabric.New ran", dir, addr)
	}
	return f.hosts[h.ID], nil
}

// routeFor selects the flow's ECMP route and resolves both endpoints.
func (f *Fabric) routeFor(p dataplane.Packet) (r []hopInfo, src, dst endpoint, err error) {
	if src, err = f.endpointOf(p.SrcIP, "source"); err != nil {
		return nil, src, dst, err
	}
	if dst, err = f.endpointOf(p.DstIP, "destination"); err != nil {
		return nil, src, dst, err
	}
	set := f.ecmpFor(src.leaf, dst.leaf)
	if set.n == 0 {
		return nil, src, dst, fmt.Errorf("fabric: no path %v -> %v", f.leaves[src.leaf], f.leaves[dst.leaf])
	}
	return set.route(int(flowHash(p.Flow())) % set.n), src, dst, nil
}

// hop is the pooled record of one packet in flight: the packet, its
// route, the host ports at either end, and the index of the hop it is
// at.
// step is h.advance bound once per record, so re-arming the record hop
// after hop allocates nothing.
type hop struct {
	f       *Fabric
	p       dataplane.Packet
	r       []hopInfo
	in, out int32 // host ports at the first and last hop
	i       int
	step    func()
	next    *hop // free-list link
}

// shardLane is a shard's slice of the packet path's mutable state,
// touched only by events on that shard and padded so shards don't
// false-share cache lines.
type shardLane struct {
	delivered uint64
	dropped   uint64
	free      *hop
	_         [5]uint64
}

// takeHop pops a hop record from a shard's free list.
func (f *Fabric) takeHop(shard int32) *hop {
	l := &f.lanes[shard]
	h := l.free
	if h == nil {
		h = &hop{f: f}
		h.step = h.advance
		return h
	}
	l.free, h.next = h.next, nil
	return h
}

// putHop returns a finished record to the free list of the shard it
// finished on.
func (f *Fabric) putHop(shard int32, h *hop) {
	h.p, h.r = dataplane.Packet{}, nil
	l := &f.lanes[shard]
	h.next, l.free = l.free, h
}

// advance injects the packet at hop h.i and either retires the record
// (dropped or delivered) or re-arms it toward the next hop.
func (h *hop) advance() {
	f, r, i := h.f, h.r, h.i
	at := &r[i]
	in, out := int(at.in), int(at.out)
	if i == 0 {
		in = int(h.in)
	}
	last := i == len(r)-1
	if last {
		out = int(h.out)
	}
	v := f.switches[at.sw].Inject(h.p, in, out)
	switch {
	case v.Dropped:
		f.lanes[at.shard].dropped++
		f.putHop(at.shard, h)
	case last:
		f.lanes[at.shard].delivered++
		f.putHop(at.shard, h)
	default:
		h.i++
		f.part.CrossAfter(int(at.shard), int(r[i+1].shard), f.opts.HopLatency, h.step)
	}
}
