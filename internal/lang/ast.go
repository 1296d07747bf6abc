package lang

import (
	"fmt"
	"strings"
)

// Program is a parsed S-Net compilation unit: a sequence of box and net
// declarations.
type Program struct {
	Defs []Def
}

// Def is a toplevel or nested declaration.
type Def interface {
	defNode()
	// DeclName returns the declared name.
	DeclName() string
}

// LabelItem is one entry of a tuple type or record pattern: a field, tag or
// binding-tag label.
type LabelItem struct {
	Name string
	Tag  bool // <name>
	BTag bool // <#name>
	Pos  Pos
}

// String renders the label in concrete syntax.
func (l LabelItem) String() string {
	switch {
	case l.BTag:
		return "<#" + l.Name + ">"
	case l.Tag:
		return "<" + l.Name + ">"
	default:
		return l.Name
	}
}

// Mapping is one type mapping `(in) -> (out1) | (out2)` of a box signature
// or a net forward declaration.
type Mapping struct {
	In   []LabelItem
	Outs [][]LabelItem
}

// String renders the mapping in concrete syntax.
func (m Mapping) String() string {
	outs := make([]string, len(m.Outs))
	for i, o := range m.Outs {
		outs[i] = tupleString(o)
	}
	return tupleString(m.In) + " -> " + strings.Join(outs, " | ")
}

func tupleString(items []LabelItem) string {
	parts := make([]string, len(items))
	for i, it := range items {
		parts[i] = it.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// BoxDecl declares an external box with its signature:
// box name ((a,<b>) -> (c) | (c,d,<e>));
type BoxDecl struct {
	Name string
	Sig  Mapping
	Pos  Pos
}

func (*BoxDecl) defNode() {}

// DeclName returns the box name.
func (b *BoxDecl) DeclName() string { return b.Name }

// String renders the declaration.
func (b *BoxDecl) String() string {
	return fmt.Sprintf("box %s (%s);", b.Name, b.Sig)
}

// NetDecl declares a network. Either Connect is non-nil (a full definition,
// optionally with nested declarations), or SigOnly is non-empty (a forward
// declaration by signature, as `net merger (...)` in the paper's Fig. 2,
// resolved against separately defined or registered networks).
type NetDecl struct {
	Name    string
	Decls   []Def
	Connect Expr
	SigOnly []Mapping
	Pos     Pos
}

func (*NetDecl) defNode() {}

// DeclName returns the net name.
func (n *NetDecl) DeclName() string { return n.Name }

// String renders the declaration.
func (n *NetDecl) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "net %s", n.Name)
	if len(n.SigOnly) > 0 {
		parts := make([]string, len(n.SigOnly))
		for i, m := range n.SigOnly {
			parts[i] = m.String()
		}
		fmt.Fprintf(&b, " (%s);", strings.Join(parts, ", "))
		return b.String()
	}
	if len(n.Decls) > 0 {
		b.WriteString(" {\n")
		for _, d := range n.Decls {
			b.WriteString("  " + strings.ReplaceAll(fmt.Sprint(d), "\n", "\n  ") + "\n")
		}
		b.WriteString("}")
	}
	fmt.Fprintf(&b, " connect %s;", n.Connect)
	return b.String()
}

// Expr is a network (connect) expression.
type Expr interface {
	exprNode()
	String() string
}

// NameRef references a declared box or net by name.
type NameRef struct {
	Name string
	Pos  Pos
}

func (*NameRef) exprNode() {}

// String returns the name.
func (n *NameRef) String() string { return n.Name }

// SerialExpr is A..B.
type SerialExpr struct {
	L, R Expr
}

func (*SerialExpr) exprNode() {}

// String renders A..B. The combinator groups to the left, so a serial
// composition as right operand keeps its parentheses.
func (e *SerialExpr) String() string {
	if _, ok := e.R.(*SerialExpr); ok {
		return fmt.Sprintf("%s .. (%s)", e.L, e.R)
	}
	return fmt.Sprintf("%s .. %s", e.L, e.R)
}

// ChoiceExpr is A|B (nondeterministic) or A||B (deterministic).
type ChoiceExpr struct {
	L, R Expr
	Det  bool
}

func (*ChoiceExpr) exprNode() {}

// String renders the choice.
func (e *ChoiceExpr) String() string {
	op := "|"
	if e.Det {
		op = "||"
	}
	return fmt.Sprintf("(%s %s %s)", e.L, op, e.R)
}

// StarExpr is A*pattern or A**pattern.
type StarExpr struct {
	Operand Expr
	Exit    *PatternAST
	Det     bool
}

func (*StarExpr) exprNode() {}

// String renders the star.
func (e *StarExpr) String() string {
	op := "*"
	if e.Det {
		op = "**"
	}
	return fmt.Sprintf("(%s)%s%s", e.Operand, op, e.Exit)
}

// SplitExpr is A!<tag>, A!!<tag>, or the placed A!@<tag>.
type SplitExpr struct {
	Operand Expr
	Tag     string
	Det     bool
	Placed  bool // !@ — indexed dynamic placement
}

func (*SplitExpr) exprNode() {}

// String renders the split.
func (e *SplitExpr) String() string {
	op := "!"
	if e.Det {
		op = "!!"
	}
	if e.Placed {
		op = "!@"
	}
	return fmt.Sprintf("(%s)%s<%s>", e.Operand, op, e.Tag)
}

// AtExpr is the static placement A@node.
type AtExpr struct {
	Operand Expr
	Node    int
}

func (*AtExpr) exprNode() {}

// String renders the placement.
func (e *AtExpr) String() string {
	return fmt.Sprintf("(%s)@%d", e.Operand, e.Node)
}

// FilterExpr is a filter [ pattern -> out1 ; out2 ] or the identity [].
type FilterExpr struct {
	// Rule is nil for the identity filter [].
	Rule *FilterRuleAST
	Pos  Pos
}

func (*FilterExpr) exprNode() {}

// String renders the filter.
func (e *FilterExpr) String() string {
	if e.Rule == nil {
		return "[]"
	}
	outs := make([]string, len(e.Rule.Outputs))
	for i, o := range e.Rule.Outputs {
		outs[i] = o.String()
	}
	return fmt.Sprintf("[ %s -> %s ]", e.Rule.Pattern, strings.Join(outs, "; "))
}

// SyncExpr is a synchrocell [| p1, p2, ... |].
type SyncExpr struct {
	Patterns []*PatternAST
	Pos      Pos
}

func (*SyncExpr) exprNode() {}

// String renders the synchrocell.
func (e *SyncExpr) String() string {
	parts := make([]string, len(e.Patterns))
	for i, p := range e.Patterns {
		parts[i] = p.String()
	}
	return "[| " + strings.Join(parts, ", ") + " |]"
}

// PatternAST is a record pattern: labels plus optional guard expressions,
// e.g. {sect, <node>} or {<tasks> == <cnt>}.
type PatternAST struct {
	Labels []LabelItem
	Guards []TagExprAST // each must be boolean-valued (comparison)
	Pos    Pos
}

// String renders the pattern in concrete syntax.
func (p *PatternAST) String() string {
	var parts []string
	for _, l := range p.Labels {
		parts = append(parts, l.String())
	}
	for _, g := range p.Guards {
		parts = append(parts, g.String())
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// OutTemplateAST is one output record template of a filter rule.
type OutTemplateAST struct {
	Items []OutItemAST
	Pos   Pos
}

// String renders the template.
func (o OutTemplateAST) String() string {
	parts := make([]string, len(o.Items))
	for i, it := range o.Items {
		parts[i] = it.String()
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// OutItemKind enumerates filter output template items.
type OutItemKind int

// Output template item kinds.
const (
	// OutCopyField copies a field from the input record.
	OutCopyField OutItemKind = iota
	// OutCopyTag copies a tag from the input record.
	OutCopyTag
	// OutAssignTag sets a tag to the value of an expression; the AddTo
	// flag marks the += / -= sugar.
	OutAssignTag
	// OutRenameField copies a field under a new name.
	OutRenameField
)

// OutItemAST is one item of an output template.
type OutItemAST struct {
	Kind  OutItemKind
	Name  string     // label name (target name for renames)
	From  string     // source field for renames
	Expr  TagExprAST // for OutAssignTag
	AddOp TokKind    // Assign, PlusEq or MinusEq for OutAssignTag
	Pos   Pos
}

// String renders the item.
func (o OutItemAST) String() string {
	switch o.Kind {
	case OutCopyField:
		return o.Name
	case OutCopyTag:
		return "<" + o.Name + ">"
	case OutRenameField:
		return o.From + " -> " + o.Name
	case OutAssignTag:
		op := "="
		switch o.AddOp {
		case PlusEq:
			op = "+="
		case MinusEq:
			op = "-="
		}
		// A comparison at the top would close the angle bracket.
		return "<" + o.Name + op + operand(o.Expr, precCmp) + ">"
	}
	return "?"
}

// TagExprAST is an integer/boolean expression over tag values.
type TagExprAST interface {
	String() string
	tagExprNode()
}

// IntLit is an integer literal.
type IntLit struct {
	Val int
	Pos Pos
}

func (*IntLit) tagExprNode() {}

// String renders the literal.
func (e *IntLit) String() string { return fmt.Sprintf("%d", e.Val) }

// TagRef references a tag value; Angled records whether the concrete syntax
// used <name> (guards) or a bare name (assignment right-hand sides).
type TagRef struct {
	Name   string
	Angled bool
	Pos    Pos
}

func (*TagRef) tagExprNode() {}

// String renders the reference.
func (e *TagRef) String() string {
	if e.Angled {
		return "<" + e.Name + ">"
	}
	return e.Name
}

// BinExpr is a binary arithmetic or comparison expression.
type BinExpr struct {
	Op   TokKind // Plus Minus Star Slash Percent EqEq Neq Lt Gt Le Ge
	L, R TagExprAST
}

func (*BinExpr) tagExprNode() {}

// Binding strength of the binary operators, weakest first.
const (
	precCmp = iota + 1
	precAdd
	precMul
)

func (e *BinExpr) prec() int {
	switch e.Op {
	case Plus, Minus:
		return precAdd
	case Star, Slash, Percent:
		return precMul
	}
	return precCmp
}

// operand renders e as the operand of an operator: in parentheses when e is
// a binary expression that binds no tighter than atMost, which the parser
// would otherwise group differently.
func operand(e TagExprAST, atMost int) string {
	if b, ok := e.(*BinExpr); ok && b.prec() <= atMost {
		return "(" + b.String() + ")"
	}
	return e.String()
}

// String renders the expression so that it parses back to the same tree:
// arithmetic groups to the left, comparisons do not chain.
func (e *BinExpr) String() string {
	op := map[TokKind]string{
		Plus: "+", Minus: "-", Star: "*", Slash: "/", Percent: "%",
		EqEq: "==", Neq: "!=", Lt: "<", Gt: ">", Le: "<=", Ge: ">=",
	}[e.Op]
	left := e.prec() - 1
	if left < precCmp {
		left = precCmp
	}
	return fmt.Sprintf("%s %s %s", operand(e.L, left), op, operand(e.R, e.prec()))
}

// IsComparison reports whether the expression's toplevel operator yields a
// boolean (i.e. the expression is usable as a guard).
func IsComparison(e TagExprAST) bool {
	b, ok := e.(*BinExpr)
	if !ok {
		return false
	}
	switch b.Op {
	case EqEq, Neq, Lt, Gt, Le, Ge:
		return true
	}
	return false
}
