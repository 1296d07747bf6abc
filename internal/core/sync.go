package core

import (
	"strings"

	"snet/internal/record"
	"snet/internal/rtype"
)

// NewSync builds a synchrocell [| p1, p2, ... |] — the only stateful entity
// in S-Net. The cell holds the first record matching each pattern; once
// every pattern has been matched, the stored records are merged into a
// single record (labels of records matched against earlier patterns take
// priority on overlap) which is released to the output stream. After
// firing, the cell becomes the identity: all further records pass through
// unchanged. Records that match no unfilled pattern also pass through
// unchanged.
//
// If the input stream ends before the cell has fired, the stored records
// are discarded (the reference runtime's behaviour at network termination).
func NewSync(patterns ...*rtype.Pattern) *Entity {
	if len(patterns) < 2 {
		panic("core.NewSync: a synchrocell needs at least two patterns")
	}
	inT := rtype.NewType()
	merged := rtype.NewVariant()
	for _, p := range patterns {
		inT.AddVariant(p.Variant)
		merged = merged.Union(p.Variant)
	}
	outT := inT.Union(rtype.NewType(merged))
	e := &Entity{
		nameFn: func() string { return syncName(patterns) },
		sig:    rtype.NewSignature(inT, outT),
		kind:   kindSync,
		// Records matching no unfilled pattern pass through unchanged —
		// possibly outside the declared output type — so downstream
		// signature-driven rewrites (branch pruning) must not trust it.
		looseOut: true,
	}
	e.setStages([]fuseStage{{kind: stageSync, ent: e, patterns: patterns}})
	return e
}

// syncStep is the synchrocell's per-record semantics, for the cell standing
// alone and for the cell as a stage of a fused tree alike: store the first
// record matching each unfilled pattern, pass everything else through, and
// release the merged record once every pattern is filled.
func (m *machine) syncStep(s *fuseStage, r *record.Record, dst []*record.Record) []*record.Record {
	filled := &m.ints[m.ib+s.idx]
	if *filled == syncFired {
		return append(dst, r)
	}
	stored := m.stored[m.sb+s.slot:][:len(s.patterns)]
	idx := -1
	for i, p := range s.patterns {
		if stored[i] == nil && p.Matches(r) {
			idx = i
			break
		}
	}
	if idx < 0 {
		return append(dst, r)
	}
	m.pure = false
	stored[idx] = r
	if *filled++; *filled < len(stored) {
		return dst
	}
	// The cell is the stored records' only owner, so the join is stored[0]
	// itself: merging in pattern order keeps the earlier patterns' labels on
	// overlap, and being the same record it keeps its delivery lineage. The
	// others died in the merge (field values flow on by reference); their
	// deliveries complete here — their labels flowed into the join, replaying
	// them would double the contribution.
	merged := stored[0]
	stored[0] = nil
	for i, o := range stored[1:] {
		merged.Merge(o)
		m.env.trackDrop(o)
		recycle(o)
		stored[i+1] = nil
	}
	*filled = syncFired
	m.joined = true
	return append(dst, merged)
}

// discardStored reclaims what the synchrocells of the machine's
// instantiations still hold when it goes away, in instantiation order.
func (m *machine) discardStored() { discardStored(m.env, m.stored) }

// discardStored reclaims synchrocell storage at close. Storage discarded at
// close is dead — the cell is its only owner — so it goes back to the pool
// instead of leaking. The termination discard is sanctioned (the reference
// runtime's behaviour), so the deliveries complete here — except under Stop,
// where discarded records stay unacknowledged on purpose: a recovery replays
// them.
func discardStored(env *Env, stored []*record.Record) {
	stopped := env.stopped()
	for i, o := range stored {
		if o != nil {
			if !stopped {
				env.trackDrop(o)
			}
			recycle(o)
			stored[i] = nil
		}
	}
}

func syncName(patterns []*rtype.Pattern) string {
	parts := make([]string, len(patterns))
	for i, p := range patterns {
		parts[i] = p.String()
	}
	return "[|" + strings.Join(parts, ", ") + "|]"
}
