package core

import (
	"fmt"
	"strings"

	"snet/internal/record"
	"snet/internal/rtype"
	"snet/internal/stream"
)

// TagExpr computes an integer from a record's tag values; it is the runtime
// form of filter tag expressions such as <cnt+=1>.
type TagExpr func(r *record.Record) int

// FilterOutput is one output template of a filter rule. For each input
// record, the template produces one output record containing:
//
//   - CopyFields: fields copied from the input record;
//   - CopyTags: tags copied verbatim from the input record;
//   - SetTags: tags computed from the input record's tag values;
//   - RenameFields: fields copied under a new name (old -> new).
//
// Labels of the input record NOT matched by the rule's pattern are
// additionally attached to the output by flow inheritance; pattern-matched
// labels that the template does not mention are consumed (dropped).
type FilterOutput struct {
	CopyFields   []string
	CopyTags     []string
	SetTags      []TagAssign
	RenameFields []Rename
}

// TagAssign sets tag Name to the value of Expr; Src is the textual form for
// diagnostics.
type TagAssign struct {
	Name string
	Expr TagExpr
	Src  string
}

// Rename copies field From under label To.
type Rename struct {
	From, To string
}

// FilterRule couples a match pattern with one or more output templates
// (separated by ';' in the concrete syntax: one input record yields one
// output record per template).
type FilterRule struct {
	Pattern *rtype.Pattern
	Outputs []FilterOutput
}

// compiledOutput is a FilterOutput with every label interned, fixed at
// NewFilter time so applying the template is pure symbol work.
type compiledOutput struct {
	copyFields []record.Sym
	copyTags   []record.Sym
	setTags    []compiledAssign
	renames    []compiledRename
}

type compiledAssign struct {
	id   record.Sym
	expr TagExpr
}

type compiledRename struct {
	from, to record.Sym
}

// compiledRule is a FilterRule lowered to interned symbols: the consumed
// sets come straight from the pattern variant's symbol slices (no per-record
// set construction), and templates address labels by symbol.
type compiledRule struct {
	pattern   *rtype.Pattern
	consumedF []record.Sym
	consumedT []record.Sym
	outputs   []compiledOutput
}

func compileRule(rule FilterRule) compiledRule {
	cr := compiledRule{
		pattern:   rule.Pattern,
		consumedF: rule.Pattern.Variant.FieldSyms(),
		consumedT: rule.Pattern.Variant.TagSyms(),
	}
	for _, o := range rule.Outputs {
		var co compiledOutput
		for _, f := range o.CopyFields {
			co.copyFields = append(co.copyFields, record.Intern(f))
		}
		for _, t := range o.CopyTags {
			co.copyTags = append(co.copyTags, record.Intern(t))
		}
		for _, a := range o.SetTags {
			co.setTags = append(co.setTags, compiledAssign{id: record.Intern(a.Name), expr: a.Expr})
		}
		for _, rn := range o.RenameFields {
			co.renames = append(co.renames, compiledRename{
				from: record.Intern(rn.From), to: record.Intern(rn.To)})
		}
		cr.outputs = append(cr.outputs, co)
	}
	return cr
}

// NewFilter builds a filter entity from match rules. A record is processed
// by the first rule whose pattern it matches; a record matching no rule is
// a runtime type error. The identity filter [] is Identity. Rules are
// lowered to interned-symbol form here, once, so the per-record work is
// symbol scans and entry copies only.
func NewFilter(name string, rules ...FilterRule) *Entity {
	inT := rtype.NewType()
	outT := rtype.NewType()
	for _, rule := range rules {
		inT.AddVariant(rule.Pattern.Variant)
		for _, o := range rule.Outputs {
			v := rtype.NewVariant()
			for _, f := range o.CopyFields {
				v.Add(rtype.F(f))
			}
			for _, t := range o.CopyTags {
				v.Add(rtype.T(t))
			}
			for _, a := range o.SetTags {
				v.Add(rtype.T(a.Name))
			}
			for _, rn := range o.RenameFields {
				v.Add(rtype.F(rn.To))
			}
			outT.AddVariant(v)
		}
	}
	compiled := make([]compiledRule, len(rules))
	for i, rule := range rules {
		compiled[i] = compileRule(rule)
	}
	e := &Entity{name: name, sig: rtype.NewSignature(inT, outT), kind: kindFilter}
	if name == "" {
		// The S-Net-ish rendering of the rules is pure diagnostics; defer
		// building it until someone asks.
		e.nameFn = func() string { return describeFilter(rules) }
	}
	e.setStages([]fuseStage{{kind: stageFilter, ent: e, rules: compiled}})
	return e
}

// runRules is the filter's whole per-record semantics minus delivery:
// apply the first matching rule to r, append the rule's outputs to dst
// (a multi-template rule's fan-out stays together and leaves as one link
// operation), recycle r (rules build fresh records); report a record
// matching no rule against e and drop it.
func runRules(env *Env, e *Entity, rules []compiledRule, r *record.Record, dst []*record.Record) []*record.Record {
	for i := range rules {
		rule := &rules[i]
		if !rule.pattern.Matches(r) {
			continue
		}
		for oi := range rule.outputs {
			dst = append(dst, buildOutput(&rule.outputs[oi], rule, r))
		}
		env.trackFork(r, len(rule.outputs))
		recycle(r)
		return dst
	}
	env.reportRT(e.Name(), ErrCatNoMatch, r.String(), fmt.Errorf(
		"record %s matches no filter rule", r))
	env.trackDrop(r)
	recycle(r)
	return dst
}

// buildOutput instantiates one output template against the input record,
// flow inheritance included.
func buildOutput(o *compiledOutput, rule *compiledRule, r *record.Record) *record.Record {
	nr := recordPool.Get()
	for _, f := range o.copyFields {
		if v, ok := r.FieldSym(f); ok {
			nr.SetFieldSym(f, v)
		}
	}
	for _, rn := range o.renames {
		if v, ok := r.FieldSym(rn.from); ok {
			nr.SetFieldSym(rn.to, v)
		}
	}
	for _, t := range o.copyTags {
		if v, ok := r.TagSym(t); ok {
			nr.SetTagSym(t, v)
		}
	}
	for _, a := range o.setTags {
		nr.SetTagSym(a.id, a.expr(r))
	}
	nr.InheritFromExcept(r, rule.consumedF, rule.consumedT)
	return nr
}

// Identity builds the identity filter [], which passes every record through
// unchanged. Its input type is the empty variant (accepts everything with
// match score 0), which is what makes it usable as the bypass branch in the
// paper's merger and solver networks. The optimizer elides identities from
// serial chains and choice dispatch (the trivial case of fusion); under
// OptimizeOff the pass-through goroutine spawns as written.
func Identity() *Entity {
	empty := rtype.NewType(rtype.NewVariant())
	return &Entity{
		name: "[]",
		sig:  rtype.NewSignature(empty, empty),
		kind: kindIdentity,
		spawn: func(env *Env, in, out *stream.Link) {
			env.start(func() { env.relay(in, out, env.node, env.node) })
		},
	}
}

// describeFilter renders rules in S-Net-ish syntax for diagnostics.
func describeFilter(rules []FilterRule) string {
	var parts []string
	for _, rule := range rules {
		var outs []string
		for _, o := range rule.Outputs {
			var items []string
			items = append(items, o.CopyFields...)
			for _, rn := range o.RenameFields {
				items = append(items, rn.From+"->"+rn.To)
			}
			for _, t := range o.CopyTags {
				items = append(items, "<"+t+">")
			}
			for _, a := range o.SetTags {
				src := a.Src
				if src == "" {
					src = a.Name + "=…"
				}
				items = append(items, "<"+src+">")
			}
			outs = append(outs, "{"+strings.Join(items, ",")+"}")
		}
		parts = append(parts, rule.Pattern.String()+" -> "+strings.Join(outs, "; "))
	}
	return "[" + strings.Join(parts, " | ") + "]"
}
