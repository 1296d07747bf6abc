// Package netdiff is a differential equivalence harness for the network
// optimizer (core.Optimize): it runs the same record stream through two
// instantiations of the same network — one built with OptimizeOff (the
// reference: the entity tree exactly as constructed) and one with the full
// rewrite catalogue — and asserts the observable outcomes are equal.
//
// Equality is the S-Net contract, not byte-level trace equality:
//
//   - For general networks the output is compared as a multiset — the
//     nondeterministic combinators (|, !, star) never promised an order,
//     only the records themselves.
//   - For deterministic networks (serial/det-combinator trees) the output
//     is compared as a sequence: ||, !! and deterministic merging promise
//     arrival order, and the optimizer must preserve it.
//   - Both sides must agree on error-ness (a record matching no filter
//     rule must still be reported after fusion) and both instances must
//     reclaim every runtime goroutine (leakcheck).
//   - Neither side may dead-letter a record, and with Config.Durable both
//     run over an ingress journal that must have drained by the time the
//     instance has closed: every delivery's derivation tree completed, on
//     the tree as written and on the fused one.
//
// The harness is wired over every combinator topology the core tests
// exercise plus randomized combinator trees (see Generate); CI runs a
// fixed corpus and a seed budget under -race.
package netdiff

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"snet/internal/core"
	"snet/internal/journal"
	"snet/internal/leakcheck"
	"snet/internal/record"
)

// Config shapes one differential check.
type Config struct {
	// Ordered compares outputs as sequences instead of multisets. Set it
	// only for networks whose output order is promised: trees of serial
	// and deterministic combinators.
	Ordered bool
	// Opts is the base options both instantiations share; the Optimize
	// field is overridden per side.
	Opts core.Options
	// Durable runs each side with Options.Durability over a directory of
	// its own and asserts the journal is empty afterwards.
	Durable bool
}

// Check runs inputs() through e twice — optimizer off and on — and fails
// t on any observable difference. inputs is called once per side because
// Run takes ownership of the records.
func Check(t testing.TB, e *core.Entity, cfg Config, inputs func() []*record.Record) {
	t.Helper()
	leakcheck.Check(t)

	run := func(lvl core.OptimizeLevel) ([]string, error, core.OptStats) {
		opts := cfg.Opts
		opts.Optimize = lvl
		if cfg.Durable {
			opts.Durability = &core.Durability{Dir: t.TempDir()}
		}
		n := core.NewNetwork(e, opts)
		inst := n.Start()
		go func() {
			for _, r := range inputs() {
				if !inst.Send(r) {
					return
				}
			}
			inst.CloseIn()
		}()
		var keys []string
		for r := range inst.Out {
			keys = append(keys, canon(r))
		}
		err := inst.Close()
		if letters, dropped := inst.DeadLetters(); len(letters)+dropped > 0 {
			t.Fatalf("netdiff: %d dead letters (%d more dropped) at optimize level %d", len(letters), dropped, lvl)
		}
		if cfg.Durable {
			j, jerr := journal.Open(journal.Config{Dir: opts.Durability.Dir})
			if jerr != nil {
				t.Fatalf("netdiff: reopen journal: %v", jerr)
			}
			left := len(j.Recovered())
			j.Close() // only read
			if left != 0 {
				t.Fatalf("netdiff: journal holds %d unacknowledged deliveries after the instance closed (optimize level %d)", left, lvl)
			}
		}
		return keys, err, n.OptStats()
	}

	ref, refErr, _ := run(core.OptimizeOff)
	opt, optErr, st := run(core.OptimizeFull)

	if (refErr == nil) != (optErr == nil) {
		t.Fatalf("netdiff: error divergence\n  reference: %v\n  optimized: %v\n  optimizer: %+v",
			refErr, optErr, st)
	}
	if !st.Enabled {
		t.Fatalf("netdiff: optimized side reported disabled stats: %+v", st)
	}
	if st.EntitiesAfter > st.EntitiesBefore {
		t.Fatalf("netdiff: optimizer grew the network: %+v", st)
	}
	if len(ref) != len(opt) {
		t.Fatalf("netdiff: output count %d (reference) vs %d (optimized)\n%s\noptimizer: %+v",
			len(ref), len(opt), diff(ref, opt, cfg.Ordered), st)
	}
	if cfg.Ordered {
		for i := range ref {
			if ref[i] != opt[i] {
				t.Fatalf("netdiff: sequence divergence at output %d\n  reference: %s\n  optimized: %s\noptimizer: %+v",
					i, ref[i], opt[i], st)
			}
		}
		return
	}
	if d := diff(ref, opt, false); d != "" {
		t.Fatalf("netdiff: multiset divergence\n%s\noptimizer: %+v", d, st)
	}
}

// canon renders a record as a canonical string: sorted fields WITH their
// values (record.String prints field names only), sorted tags and binding
// tags. Two records with equal canon are indistinguishable to any S-Net
// consumer.
func canon(r *record.Record) string {
	var parts []string
	for _, f := range r.Fields() {
		v, _ := r.Field(f)
		parts = append(parts, fmt.Sprintf("%s=%v", f, v))
	}
	for _, k := range r.Tags() {
		v, _ := r.Tag(k)
		parts = append(parts, fmt.Sprintf("<%s=%d>", k, v))
	}
	for _, k := range r.BTags() {
		v, _ := r.BTag(k)
		parts = append(parts, fmt.Sprintf("<#%s=%d>", k, v))
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// diff reports the multiset difference between the two sides, empty when
// equal. For ordered mismatches it still prints the multiset view (the
// most readable summary of what went missing or appeared).
func diff(ref, opt []string, _ bool) string {
	counts := map[string]int{}
	for _, k := range ref {
		counts[k]++
	}
	for _, k := range opt {
		counts[k]--
	}
	var lines []string
	for k, c := range counts {
		switch {
		case c > 0:
			lines = append(lines, fmt.Sprintf("  missing from optimized (x%d): %s", c, k))
		case c < 0:
			lines = append(lines, fmt.Sprintf("  extra in optimized (x%d): %s", -c, k))
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}
