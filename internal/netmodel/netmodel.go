// Package netmodel models the data center network: switches, links,
// hosts, and path enumeration.
//
// It plays the role of the SDN controller's topology view in the paper:
// the seeder resolves Almanac place directives by asking the controller
// for the set of paths matching a traffic filter (φ_path in §III-B) and
// for the switches present in the fabric.
package netmodel

import (
	"fmt"
	"net/netip"
	"sort"
	"strings"
)

// Resource type names used throughout FARM. These match the three
// ASIC-specific resource classes the soil tracks (§II-B-b) plus the
// general-purpose CPU/RAM of the switch management system.
const (
	ResVCPU = "vCPU" // management-system CPU cores
	ResRAM  = "RAM"  // management-system memory, MB
	ResTCAM = "TCAM" // TCAM entries available to monitoring
	ResPCIe = "PCIe" // CPU<->ASIC bus share for probing (normalized units)
	ResPoll = "poll" // statistics polling capacity, requests/s
)

// StandardResources lists all resource types in deterministic order.
var StandardResources = []string{ResVCPU, ResRAM, ResTCAM, ResPCIe, ResPoll}

// Resources maps resource type to amount. The zero value (nil) means
// "no resources".
type Resources map[string]float64

// Clone returns a deep copy.
func (r Resources) Clone() Resources {
	c := make(Resources, len(r))
	for k, v := range r {
		c[k] = v
	}
	return c
}

// Add returns r + s (neither operand is modified).
func (r Resources) Add(s Resources) Resources {
	c := r.Clone()
	for k, v := range s {
		c[k] += v
	}
	return c
}

// Sub returns r - s (neither operand is modified).
func (r Resources) Sub(s Resources) Resources {
	c := r.Clone()
	for k, v := range s {
		c[k] -= v
	}
	return c
}

// Scale returns k*r.
func (r Resources) Scale(k float64) Resources {
	c := make(Resources, len(r))
	for name, v := range r {
		c[name] = v * k
	}
	return c
}

// AtLeast reports whether r >= s component-wise (within eps).
func (r Resources) AtLeast(s Resources, eps float64) bool {
	for k, v := range s {
		if r[k] < v-eps {
			return false
		}
	}
	return true
}

// AsFloats returns r as a plain map for polynomial evaluation.
func (r Resources) AsFloats() map[string]float64 { return r }

func (r Resources) String() string {
	keys := make([]string, 0, len(r))
	for k := range r {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%g", k, r[k])
	}
	return "{" + strings.Join(parts, " ") + "}"
}

// Role classifies a switch within the fabric.
type Role int

const (
	Leaf Role = iota + 1
	Spine
	Core
)

func (r Role) String() string {
	switch r {
	case Leaf:
		return "leaf"
	case Spine:
		return "spine"
	case Core:
		return "core"
	}
	return fmt.Sprintf("Role(%d)", int(r))
}

// SwitchID identifies a switch within one Topology.
type SwitchID int

// HostID identifies a host within one Topology.
type HostID int

// Switch is a network switch with its resource capacity.
type Switch struct {
	ID       SwitchID
	Name     string
	Role     Role
	Capacity Resources
}

// Host is an end host attached to a leaf switch.
type Host struct {
	ID   HostID
	IP   netip.Addr
	Leaf SwitchID
}

// Path is a sequence of switches from the sender-side leaf to the
// receiver-side leaf (inclusive).
type Path []SwitchID

// Key returns a canonical string form usable as a map key.
func (p Path) Key() string {
	parts := make([]string, len(p))
	for i, n := range p {
		parts[i] = fmt.Sprintf("%d", int(n))
	}
	return strings.Join(parts, "-")
}

// Topology is the fabric graph plus attached hosts. Construct with New
// or a builder such as SpineLeaf, then add switches/links/hosts. Not
// safe for concurrent mutation.
type Topology struct {
	switches []Switch
	adj      map[SwitchID][]SwitchID
	hosts    []Host
	byIP     map[netip.Addr]HostID
	// maxECMP caps path enumeration fan-out; 0 means DefaultMaxECMP.
	maxECMP int
}

// DefaultMaxECMP bounds the number of equal-cost paths enumerated per
// host pair, mirroring hardware ECMP group limits.
const DefaultMaxECMP = 16

// New returns an empty topology.
func New() *Topology {
	return &Topology{
		adj:  make(map[SwitchID][]SwitchID),
		byIP: make(map[netip.Addr]HostID),
	}
}

// SetMaxECMP overrides the per-pair path enumeration cap. A fabric
// caches the enumeration, so call it before fabric.New.
func (t *Topology) SetMaxECMP(n int) { t.maxECMP = n }

// AddSwitch adds a switch and returns its ID.
func (t *Topology) AddSwitch(name string, role Role, capacity Resources) SwitchID {
	id := SwitchID(len(t.switches))
	t.switches = append(t.switches, Switch{ID: id, Name: name, Role: role, Capacity: capacity.Clone()})
	return id
}

// AddLink adds an undirected link between a and b.
func (t *Topology) AddLink(a, b SwitchID) {
	t.adj[a] = append(t.adj[a], b)
	t.adj[b] = append(t.adj[b], a)
}

// AddHost attaches a host with the given IP to a leaf switch.
func (t *Topology) AddHost(leaf SwitchID, ip netip.Addr) (HostID, error) {
	if _, dup := t.byIP[ip]; dup {
		return 0, fmt.Errorf("netmodel: duplicate host IP %v", ip)
	}
	id := HostID(len(t.hosts))
	t.hosts = append(t.hosts, Host{ID: id, IP: ip, Leaf: leaf})
	t.byIP[ip] = id
	return id, nil
}

// Switches returns all switches (callers must not modify the slice).
func (t *Topology) Switches() []Switch { return t.switches }

// NumSwitches returns the switch count.
func (t *Topology) NumSwitches() int { return len(t.switches) }

// Switch returns the switch with the given ID.
func (t *Topology) Switch(id SwitchID) Switch { return t.switches[id] }

// Hosts returns all hosts (callers must not modify the slice).
func (t *Topology) Hosts() []Host { return t.hosts }

// HostByIP looks a host up by address.
func (t *Topology) HostByIP(ip netip.Addr) (Host, bool) {
	id, ok := t.byIP[ip]
	if !ok {
		return Host{}, false
	}
	return t.hosts[id], true
}

// Neighbors returns the adjacency list of s (callers must not modify).
func (t *Topology) Neighbors(s SwitchID) []SwitchID { return t.adj[s] }

// SwitchIDs returns all switch IDs in order.
func (t *Topology) SwitchIDs() []SwitchID {
	ids := make([]SwitchID, len(t.switches))
	for i := range t.switches {
		ids[i] = SwitchID(i)
	}
	return ids
}

// Paths enumerates all shortest paths from src to dst, up to the ECMP
// cap. A path from a switch to itself is the single-element path.
func (t *Topology) Paths(src, dst SwitchID) []Path {
	if src == dst {
		return []Path{{src}}
	}
	limit := t.maxECMP
	if limit <= 0 {
		limit = DefaultMaxECMP
	}
	// BFS distance from src.
	dist := make(map[SwitchID]int, len(t.switches))
	dist[src] = 0
	queue := []SwitchID{src}
	found := false
	for len(queue) > 0 && !found {
		cur := queue[0]
		queue = queue[1:]
		for _, nb := range t.adj[cur] {
			if _, seen := dist[nb]; !seen {
				dist[nb] = dist[cur] + 1
				if nb == dst {
					found = true
				}
				queue = append(queue, nb)
			}
		}
	}
	if _, ok := dist[dst]; !ok {
		return nil
	}
	// DFS backwards from dst along strictly decreasing distance.
	var paths []Path
	var walk func(cur SwitchID, suffix []SwitchID)
	walk = func(cur SwitchID, suffix []SwitchID) {
		if len(paths) >= limit {
			return
		}
		suffix = append(suffix, cur)
		if cur == src {
			p := make(Path, len(suffix))
			for i, n := range suffix {
				p[len(suffix)-1-i] = n
			}
			paths = append(paths, p)
			return
		}
		// Deterministic neighbor order.
		nbs := append([]SwitchID(nil), t.adj[cur]...)
		sort.Slice(nbs, func(i, j int) bool { return nbs[i] < nbs[j] })
		for _, nb := range nbs {
			if d, ok := dist[nb]; ok && d == dist[cur]-1 {
				walk(nb, suffix)
			}
		}
	}
	walk(dst, nil)
	return paths
}

// PathsBetweenPrefixes returns the deduplicated set of shortest paths
// carrying traffic from any host in srcPfx to any host in dstPfx. This
// is φ_path from §III-B: the seeder's query to the SDN controller when
// resolving a range placement constraint.
func (t *Topology) PathsBetweenPrefixes(srcPfx, dstPfx netip.Prefix) []Path {
	var srcLeaves, dstLeaves []SwitchID
	seenSrc := map[SwitchID]bool{}
	seenDst := map[SwitchID]bool{}
	for _, h := range t.hosts {
		if srcPfx.Contains(h.IP) && !seenSrc[h.Leaf] {
			seenSrc[h.Leaf] = true
			srcLeaves = append(srcLeaves, h.Leaf)
		}
		if dstPfx.Contains(h.IP) && !seenDst[h.Leaf] {
			seenDst[h.Leaf] = true
			dstLeaves = append(dstLeaves, h.Leaf)
		}
	}
	sort.Slice(srcLeaves, func(i, j int) bool { return srcLeaves[i] < srcLeaves[j] })
	sort.Slice(dstLeaves, func(i, j int) bool { return dstLeaves[i] < dstLeaves[j] })
	var out []Path
	seen := map[string]bool{}
	for _, s := range srcLeaves {
		for _, d := range dstLeaves {
			for _, p := range t.Paths(s, d) {
				if k := p.Key(); !seen[k] {
					seen[k] = true
					out = append(out, p)
				}
			}
		}
	}
	return out
}

// SpineLeafOptions configures the SpineLeaf builder.
type SpineLeafOptions struct {
	Spines       int
	Leaves       int
	HostsPerLeaf int
	// LeafCapacity/SpineCapacity default to DefaultLeafCapacity /
	// DefaultSpineCapacity when nil.
	LeafCapacity  Resources
	SpineCapacity Resources
}

// DefaultLeafCapacity models an Accton AS5712-class switch: 4-core Atom
// (400% CPU), 8 GB RAM, monitoring TCAM share, PCIe polling budget.
func DefaultLeafCapacity() Resources {
	return Resources{ResVCPU: 4, ResRAM: 8192, ResTCAM: 1024, ResPCIe: 16, ResPoll: 20000}
}

// DefaultSpineCapacity models an AS7712-class switch (same CPU, twice
// the RAM, larger TCAM).
func DefaultSpineCapacity() Resources {
	return Resources{ResVCPU: 4, ResRAM: 16384, ResTCAM: 2048, ResPCIe: 16, ResPoll: 20000}
}

// SpineLeaf builds a two-tier Clos fabric: every leaf is connected to
// every spine, and hostsPerLeaf hosts hang off each leaf with addresses
// 10.<leaf>.<k/250>.<k%250+1>.
func SpineLeaf(opts SpineLeafOptions) (*Topology, error) {
	if opts.Spines <= 0 || opts.Leaves <= 0 {
		return nil, fmt.Errorf("netmodel: spine-leaf needs positive spines (%d) and leaves (%d)", opts.Spines, opts.Leaves)
	}
	if opts.Leaves > 250 {
		return nil, fmt.Errorf("netmodel: at most 250 leaves supported by the addressing scheme, got %d", opts.Leaves)
	}
	leafCap := opts.LeafCapacity
	if leafCap == nil {
		leafCap = DefaultLeafCapacity()
	}
	spineCap := opts.SpineCapacity
	if spineCap == nil {
		spineCap = DefaultSpineCapacity()
	}
	t := New()
	spines := make([]SwitchID, opts.Spines)
	for i := range spines {
		spines[i] = t.AddSwitch(fmt.Sprintf("spine%d", i), Spine, spineCap)
	}
	for l := 0; l < opts.Leaves; l++ {
		leaf := t.AddSwitch(fmt.Sprintf("leaf%d", l), Leaf, leafCap)
		for _, s := range spines {
			t.AddLink(leaf, s)
		}
		for h := 0; h < opts.HostsPerLeaf; h++ {
			ip := netip.AddrFrom4([4]byte{10, byte(l), byte(h / 250), byte(h%250 + 1)})
			if _, err := t.AddHost(leaf, ip); err != nil {
				return nil, err
			}
		}
	}
	return t, nil
}

// FatTreeOptions configures the FatTree builder.
type FatTreeOptions struct {
	// K is the pod arity: K pods of K/2 aggregation and K/2 edge
	// switches each, plus (K/2)^2 core switches — 5K²/4 switches total
	// (K=20 is the 500-switch fabric of the engine-scale experiments).
	// K must be even and >= 2.
	K int
	// HostsPerEdge is the number of hosts attached to each edge switch;
	// it defaults to K/2, the classic fat-tree host fan-out.
	HostsPerEdge int
	// EdgeCapacity/AggCapacity/CoreCapacity default to
	// DefaultLeafCapacity / DefaultSpineCapacity / DefaultCoreCapacity
	// when nil.
	EdgeCapacity Resources
	AggCapacity  Resources
	CoreCapacity Resources
}

// DefaultCoreCapacity models a core-tier chassis: more management RAM
// and TCAM than the AS7712-class spine, same polling path.
func DefaultCoreCapacity() Resources {
	return Resources{ResVCPU: 8, ResRAM: 32768, ResTCAM: 4096, ResPCIe: 16, ResPoll: 20000}
}

// FatTree builds a three-tier k-ary fat-tree: (k/2)^2 core switches in
// k/2 groups, and k pods each holding k/2 aggregation and k/2 edge
// switches. Aggregation switch g of every pod uplinks to all k/2 cores
// of group g; within a pod every edge connects to every aggregation
// switch. Edge switches take the Leaf role (hosts attach there, with
// the same 10.<edge>.<h/250>.<h%250+1> addressing as SpineLeaf, so
// LeafPrefix and the placement filters work unchanged), aggregation
// switches the Spine role, and cores the Core role.
func FatTree(opts FatTreeOptions) (*Topology, error) {
	k := opts.K
	if k < 2 || k%2 != 0 {
		return nil, fmt.Errorf("netmodel: fat-tree arity must be even and >= 2, got %d", k)
	}
	half := k / 2
	if edges := k * half; edges > 250 {
		return nil, fmt.Errorf("netmodel: at most 250 edge switches supported by the addressing scheme, got %d (k=%d)", edges, k)
	}
	hostsPerEdge := opts.HostsPerEdge
	if hostsPerEdge == 0 {
		hostsPerEdge = half
	}
	edgeCap := opts.EdgeCapacity
	if edgeCap == nil {
		edgeCap = DefaultLeafCapacity()
	}
	aggCap := opts.AggCapacity
	if aggCap == nil {
		aggCap = DefaultSpineCapacity()
	}
	coreCap := opts.CoreCapacity
	if coreCap == nil {
		coreCap = DefaultCoreCapacity()
	}
	t := New()
	// Core group g holds cores g*half .. g*half+half-1.
	cores := make([]SwitchID, half*half)
	for g := 0; g < half; g++ {
		for i := 0; i < half; i++ {
			cores[g*half+i] = t.AddSwitch(fmt.Sprintf("core%d-%d", g, i), Core, coreCap)
		}
	}
	edgeIdx := 0
	for p := 0; p < k; p++ {
		aggs := make([]SwitchID, half)
		for g := 0; g < half; g++ {
			aggs[g] = t.AddSwitch(fmt.Sprintf("agg%d-%d", p, g), Spine, aggCap)
			for i := 0; i < half; i++ {
				t.AddLink(aggs[g], cores[g*half+i])
			}
		}
		for e := 0; e < half; e++ {
			edge := t.AddSwitch(fmt.Sprintf("edge%d-%d", p, e), Leaf, edgeCap)
			for _, a := range aggs {
				t.AddLink(edge, a)
			}
			for h := 0; h < hostsPerEdge; h++ {
				ip := netip.AddrFrom4([4]byte{10, byte(edgeIdx), byte(h / 250), byte(h%250 + 1)})
				if _, err := t.AddHost(edge, ip); err != nil {
					return nil, err
				}
			}
			edgeIdx++
		}
	}
	return t, nil
}

// LeafPrefix returns the /16 covering all hosts of the given leaf index
// under the SpineLeaf addressing scheme.
func LeafPrefix(leafIndex int) netip.Prefix {
	return netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(leafIndex), 0, 0}), 16)
}
