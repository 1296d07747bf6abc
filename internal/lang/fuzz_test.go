package lang

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// TestNestingLimit: source that nests deeper than maxNesting is a positioned
// parse error wherever the grammar recurses — parentheses in network and
// guard expressions, unary minus, nested net bodies, operator chains — and
// nesting just under the limit still parses. Four million "(" used to end the
// process: fatal error: stack overflow, which nothing can recover.
func TestNestingLimit(t *testing.T) {
	tooDeep := func(name, src string, parse func(string) error) {
		t.Helper()
		err := parse(src)
		if err == nil || !strings.Contains(err.Error(), "nesting deeper than") {
			t.Fatalf("%s: err = %v, want a nesting error", name, err)
		}
		if !strings.Contains(err.Error(), ":") || err.Error()[0] < '0' || err.Error()[0] > '9' {
			t.Fatalf("%s: error %q carries no position", name, err)
		}
	}
	expr := func(src string) error { _, err := ParseExpr(src); return err }
	prog := func(src string) error { _, err := Parse(src); return err }
	rep := strings.Repeat

	tooDeep("4M parens", rep("(", 4_000_000)+"a", expr)
	over := maxNesting + 1
	tooDeep("parens", rep("(", over)+"a"+rep(")", over), expr)
	tooDeep("guard parens", "a*{"+rep("(", over)+"1"+rep(")", over)+" == 1}", expr)
	tooDeep("unary minus", "a*{"+rep("-", over)+"1 == 1}", expr)
	tooDeep("serial chain", "a"+rep("..a", over), expr)
	tooDeep("choice chain", "a"+rep("|a", over), expr)
	tooDeep("postfix chain", "a"+rep("!<t>", over), expr)
	tooDeep("sum chain", "a*{1"+rep("+1", over)+" == 1}", expr)
	tooDeep("product chain", "a*{1"+rep("*1", over)+" == 1}", expr)
	tooDeep("net bodies", rep("net n {", over)+rep("} connect a", over), prog)

	under := maxNesting - 1
	for name, src := range map[string]string{
		"parens":       rep("(", under) + "a" + rep(")", under),
		"serial chain": "a" + rep("..a", under),
		"guard parens": "a*{" + rep("(", under-1) + "1" + rep(")", under-1) + " == 1}",
	} {
		if err := expr(src); err != nil {
			t.Fatalf("%s just under the limit: %v", name, err)
		}
	}
	if err := prog(rep("net n {", under) + "net n connect a" + rep("} connect a", under)); err != nil {
		t.Fatalf("net bodies just under the limit: %v", err)
	}
}

// FuzzParse feeds arbitrary source to both entry points. Either one returns
// an error, or an AST that prints and parses again to the same AST (source
// positions aside) — the printer and the parser agree — and neither ever
// panics. The corpus (testdata/fuzz/FuzzParse) holds the programs the
// repository itself compiles: snetray's five networks, wireapp's pipeline and
// the benchmark's window fold; the round-trip generator adds expressions over
// every combinator and guard form.
func FuzzParse(f *testing.F) {
	for _, src := range []string{fig2Src, fig3Src, fig4Src} {
		f.Add(src)
	}
	for seed := int64(0); seed < 32; seed++ {
		f.Add(genExpr(rand.New(rand.NewSource(seed)), 3).String())
	}
	// The printer parenthesizes every operand, so the printed form of an AST
	// near the nesting limit may nest deeper than the source did: the one
	// error a printed form may meet.
	tooDeep := func(err error) bool { return strings.Contains(err.Error(), "nesting deeper than") }
	f.Fuzz(func(t *testing.T, src string) {
		if e, err := ParseExpr(src); err == nil {
			printed := e.String()
			e2, err := ParseExpr(printed)
			switch {
			case err != nil && tooDeep(err):
			case err != nil:
				t.Fatalf("printed expression does not parse: %v\nsource:  %q\nprinted: %q", err, src, printed)
			case !sameAST(e, e2):
				t.Fatalf("printed expression parses to another AST\nsource:  %q\nprinted: %q\nagain:   %q", src, printed, e2)
			}
		}
		if p, err := Parse(src); err == nil {
			printed := printProgram(p)
			p2, err := Parse(printed)
			switch {
			case err != nil && tooDeep(err):
			case err != nil:
				t.Fatalf("printed program does not parse: %v\nsource:  %q\nprinted: %q", err, src, printed)
			case !sameAST(p, p2):
				t.Fatalf("printed program parses to another AST\nsource:  %q\nprinted: %q\nagain:   %q", src, printed, printProgram(p2))
			}
		}
	})
}

// sameAST compares two ASTs structurally, source positions aside (it clears
// them in both).
func sameAST(a, b any) bool {
	clearPos(reflect.ValueOf(a))
	clearPos(reflect.ValueOf(b))
	return reflect.DeepEqual(a, b)
}

func clearPos(v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		if !v.IsNil() {
			clearPos(v.Elem())
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			clearPos(v.Index(i))
		}
	case reflect.Struct:
		if v.Type() == reflect.TypeOf(Pos{}) {
			if v.CanSet() {
				v.SetZero()
			}
			return
		}
		for i := 0; i < v.NumField(); i++ {
			clearPos(v.Field(i))
		}
	}
}

// TestPrinterKeepsGrouping: what the parser groups with parentheses the
// printer groups with parentheses, so the printed form is the same AST — a
// right-nested serial composition, arithmetic against precedence or to the
// right, a comparison as an operand or as an assigned value, unary minus.
func TestPrinterKeepsGrouping(t *testing.T) {
	for _, src := range []string{
		"a .. (b .. c)",
		"(a .. b) .. c",
		"a*{(1 + 2) * 3 == <n>}",
		"a*{1 - (2 - 3) == <n>}",
		"a*{1 * (2 / 3) == <n>}",
		"a*{(1 == 2) == (<n> < 3)}",
		"a*{-(1 + 2) * -<n> == 0}",
		"[ {} -> {<t=(1 == 2) + 1>} ]",
		"[ {} -> {<t=(<a> > 2)>} ]",
	} {
		e, err := ParseExpr(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		e2, err := ParseExpr(e.String())
		if err != nil {
			t.Fatalf("%s prints as %s: %v", src, e, err)
		}
		if !sameAST(e, e2) {
			t.Fatalf("%s prints as %s, which parses as %s", src, e, e2)
		}
	}
}

func printProgram(p *Program) string {
	var b strings.Builder
	for _, d := range p.Defs {
		fmt.Fprintln(&b, d)
	}
	return b.String()
}

// TestIntLiteralOutOfRange: an integer literal that does not fit an int is a
// positioned error; it used to wrap silently, so A@200000000000000000000
// parsed as a placement on node -2914184810805067776 (FuzzParse's first
// finding: the printed form did not parse back).
func TestIntLiteralOutOfRange(t *testing.T) {
	_, err := ParseExpr("A@200000000000000000000")
	if err == nil || !strings.Contains(err.Error(), "1:3: integer literal 200000000000000000000 out of range") {
		t.Fatalf("err = %v, want a positioned out-of-range error", err)
	}
	if e, err := ParseExpr("A@9223372036854775807"); err != nil || e.String() != "(A)@9223372036854775807" {
		t.Fatalf("largest int: %v, %v", e, err)
	}
}
