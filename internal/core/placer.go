package core

import "sync/atomic"

// Placer decides which compute node a dynamically placed dispatch unit — an
// indexed-split replica or an untagged record of A!@<tag> — runs on.
// Placement is an extra-functional concern: a Placer never changes what a
// network computes, only where its box executions queue, so policies can be
// swapped per instantiation (Options.Placer) without touching network
// structure. It is consulted only where the program places work (A!@<tag>);
// a star's unfoldings stay on the star's node.
//
// Place is called with the dispatch key (a split tag value or an untagged
// dispatch sequence number), the platform's node count, and — when the
// platform reports it (Platform.Loads) — a per-node load snapshot. It must be
// safe for concurrent use: one Placer instance serves every dynamic
// placement site of a network instance.
type Placer interface {
	// Place returns the node for dispatch key key. nodes is at least 1;
	// load is the platform's per-node load snapshot (CPU slots in use
	// plus queued executions), or nil when the platform does not report
	// load. Out-of-range results are normalized modulo nodes.
	Place(key, nodes int, load []int) int
}

// loadFree marks built-in placers that never read the load snapshot, so
// the runtime can skip querying the platform (the snapshot takes the
// cluster's scheduler lock) on their behalf. Policies without the marker —
// including third-party Placer implementations — get the snapshot whenever
// the platform can provide one.
type loadFree interface{ placesWithoutLoad() }

// Static is the pre-stamped-tag convention of Distributed S-Net: the
// dispatch key (the splitter's <node> tag) IS the placement, modulo the
// node count. It is the default policy and reproduces the behavior of
// placement resolved at split time.
type Static struct{}

// Place returns key modulo nodes.
func (Static) Place(key, nodes int, _ []int) int {
	return ((key % nodes) + nodes) % nodes
}

func (Static) placesWithoutLoad() {}

// RoundRobin ignores the dispatch key and cycles through the nodes,
// spreading dispatch units evenly regardless of how their tag values are
// distributed. One RoundRobin value carries the cursor; share it to spread
// across sites, or use separate values for per-site cycles.
type RoundRobin struct{ next atomic.Int64 }

// Place returns the next node in cyclic order.
func (p *RoundRobin) Place(_, nodes int, _ []int) int {
	return int((p.next.Add(1) - 1) % int64(nodes))
}

func (*RoundRobin) placesWithoutLoad() {}

// LeastLoaded places each dispatch unit on the node with the smallest
// current load — the runtime decision the paper's dynamic load balancing
// approximates with circulating node tokens. Ties (and platforms that
// report no load) fall back to round-robin, so a burst of dispatches
// against a stale load snapshot still spreads instead of piling onto one
// node.
type LeastLoaded struct{ rr atomic.Int64 }

// Place returns the least-loaded node, breaking ties round-robin.
func (p *LeastLoaded) Place(_, nodes int, load []int) int {
	start := int((p.rr.Add(1) - 1) % int64(nodes))
	if len(load) < nodes {
		return start
	}
	best := start
	for off := 1; off < nodes; off++ {
		n := (start + off) % nodes
		if load[n] < load[best] {
			best = n
		}
	}
	return best
}
