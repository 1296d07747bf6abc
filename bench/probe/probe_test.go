package probe

import "testing"

// The probes marked exact are functions of the seed alone; every declared
// probe metric is produced.
func TestExactProbesRepeat(t *testing.T) {
	a, err := All(2010, t.TempDir(), 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := All(2010, t.TempDir(), 1)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	exact := 0
	for i, r := range a {
		seen[r.Name] = true
		if r.Unit != Units[r.Name] || r.Unit == "" {
			t.Errorf("%s: unit %q, declared %q", r.Name, r.Unit, Units[r.Name])
		}
		if r.Exact {
			exact++
			if b[i].Name != r.Name || b[i].Median != r.Median {
				t.Errorf("%s: %v then %v", r.Name, r.Median, b[i].Median)
			}
		}
	}
	for name := range Units {
		if !seen[name] {
			t.Errorf("%s declared but not produced", name)
		}
	}
	if exact < 5 {
		t.Errorf("only %d exact probes", exact)
	}
}
