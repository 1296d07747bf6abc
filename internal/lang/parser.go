package lang

import "fmt"

// maxNesting bounds how deep a compilation unit may nest: every level of
// parentheses, every nested net body and every operator of a combinator or
// arithmetic chain counts one. The parser recurses once per level of the
// first two; a chain it parses in a loop, but an n-fold a..b..c is an AST n
// deep, and everything that walks the AST it returns recurses n deep (the
// printer, the compiler: compile.TestCompileDeepestChain walks a chain at the
// limit). Without a bound a few megabytes of "(" — or of "..a" — from an
// untrusted source overflow the goroutine stack, which no recover can catch.
const maxNesting = 10_000

// Parser is a recursive-descent parser over a token stream.
type Parser struct {
	toks []Token
	pos  int
	// depth is the nesting at the current token (see maxNesting). Functions
	// that add to it put it back on return with defer p.leave(p.depth).
	depth int
}

// deeper enters one more level of nesting, or reports where the source
// nests too deep.
func (p *Parser) deeper() error {
	if p.depth++; p.depth > maxNesting {
		return p.errf("nesting deeper than %d levels", maxNesting)
	}
	return nil
}

func (p *Parser) leave(depth int) { p.depth = depth }

// Parse parses an S-Net compilation unit.
func Parse(src string) (*Program, error) {
	toks, err := Lex(src)
	if err != nil {
		return nil, err
	}
	p := &Parser{toks: toks}
	prog := &Program{}
	for p.cur().Kind != EOF {
		def, err := p.parseDef()
		if err != nil {
			return nil, err
		}
		prog.Defs = append(prog.Defs, def)
	}
	return prog, nil
}

// ParseExpr parses a standalone connect expression (used in tests and by
// the snetc REPL-ish mode).
func ParseExpr(src string) (Expr, error) {
	toks, err := Lex(src)
	if err != nil {
		return nil, err
	}
	p := &Parser{toks: toks}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if p.cur().Kind != EOF {
		return nil, p.errf("trailing input after expression: %s", p.cur())
	}
	return e, nil
}

func (p *Parser) cur() Token  { return p.toks[p.pos] }
func (p *Parser) next() Token { t := p.toks[p.pos]; p.pos++; return t }

func (p *Parser) at(k TokKind) bool { return p.cur().Kind == k }

func (p *Parser) accept(k TokKind) bool {
	if p.at(k) {
		p.pos++
		return true
	}
	return false
}

func (p *Parser) expect(k TokKind) (Token, error) {
	if !p.at(k) {
		return Token{}, p.errf("expected %s, found %s", k, p.cur())
	}
	return p.next(), nil
}

func (p *Parser) errf(format string, args ...any) error {
	return fmt.Errorf("%s: %s", p.cur().Pos, fmt.Sprintf(format, args...))
}

// parseDef parses `box …;` or `net …`.
func (p *Parser) parseDef() (Def, error) {
	switch p.cur().Kind {
	case KwBox:
		return p.parseBoxDecl()
	case KwNet:
		return p.parseNetDecl()
	default:
		return nil, p.errf("expected 'box' or 'net' declaration, found %s", p.cur())
	}
}

// parseBoxDecl parses: box name ( (labels) -> (labels) | (labels) ) ;
func (p *Parser) parseBoxDecl() (*BoxDecl, error) {
	kw, _ := p.expect(KwBox)
	name, err := p.expect(IDENT)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(LParen); err != nil {
		return nil, err
	}
	m, err := p.parseMapping()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(RParen); err != nil {
		return nil, err
	}
	if _, err := p.expect(Semi); err != nil {
		return nil, err
	}
	return &BoxDecl{Name: name.Text, Sig: m, Pos: kw.Pos}, nil
}

// parseMapping parses: (labels) -> (labels) { | (labels) }
func (p *Parser) parseMapping() (Mapping, error) {
	in, err := p.parseTuple()
	if err != nil {
		return Mapping{}, err
	}
	if _, err := p.expect(Arrow); err != nil {
		return Mapping{}, err
	}
	var outs [][]LabelItem
	out, err := p.parseTuple()
	if err != nil {
		return Mapping{}, err
	}
	outs = append(outs, out)
	for p.accept(Pipe) {
		out, err := p.parseTuple()
		if err != nil {
			return Mapping{}, err
		}
		outs = append(outs, out)
	}
	return Mapping{In: in, Outs: outs}, nil
}

// parseTuple parses: ( [label {, label}] )
func (p *Parser) parseTuple() ([]LabelItem, error) {
	if _, err := p.expect(LParen); err != nil {
		return nil, err
	}
	var items []LabelItem
	if !p.at(RParen) {
		for {
			it, err := p.parseLabelItem()
			if err != nil {
				return nil, err
			}
			items = append(items, it)
			if !p.accept(Comma) {
				break
			}
		}
	}
	if _, err := p.expect(RParen); err != nil {
		return nil, err
	}
	return items, nil
}

// parseLabelItem parses: name | <name> | <#name>
func (p *Parser) parseLabelItem() (LabelItem, error) {
	pos := p.cur().Pos
	if p.accept(Lt) {
		btag := p.accept(Hash)
		name, err := p.expect(IDENT)
		if err != nil {
			return LabelItem{}, err
		}
		if _, err := p.expect(Gt); err != nil {
			return LabelItem{}, err
		}
		return LabelItem{Name: name.Text, Tag: !btag, BTag: btag, Pos: pos}, nil
	}
	name, err := p.expect(IDENT)
	if err != nil {
		return LabelItem{}, err
	}
	return LabelItem{Name: name.Text, Pos: pos}, nil
}

// parseNetDecl parses either a full definition:
//
//	net name { decls } connect expr ;
//
// or a forward declaration by signature:
//
//	net name ( (in)->(out), (in)->(out) );
func (p *Parser) parseNetDecl() (*NetDecl, error) {
	defer p.leave(p.depth)
	if err := p.deeper(); err != nil {
		return nil, err
	}
	kw, _ := p.expect(KwNet)
	name, err := p.expect(IDENT)
	if err != nil {
		return nil, err
	}
	n := &NetDecl{Name: name.Text, Pos: kw.Pos}

	if p.accept(LParen) { // forward declaration
		for {
			m, err := p.parseMapping()
			if err != nil {
				return nil, err
			}
			n.SigOnly = append(n.SigOnly, m)
			if !p.accept(Comma) {
				break
			}
		}
		if _, err := p.expect(RParen); err != nil {
			return nil, err
		}
		if _, err := p.expect(Semi); err != nil {
			return nil, err
		}
		return n, nil
	}

	if p.accept(LBrace) {
		for !p.at(RBrace) {
			d, err := p.parseDef()
			if err != nil {
				return nil, err
			}
			n.Decls = append(n.Decls, d)
		}
		p.next() // consume }
	}
	if _, err := p.expect(KwConnect); err != nil {
		return nil, err
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	n.Connect = e
	p.accept(Semi)
	return n, nil
}

// parseExpr parses a connect expression. Serial composition '..' binds
// tighter than parallel composition '|'.
func (p *Parser) parseExpr() (Expr, error) { return p.parseChoice() }

func (p *Parser) parseChoice() (Expr, error) {
	defer p.leave(p.depth)
	l, err := p.parseSerial()
	if err != nil {
		return nil, err
	}
	for p.at(Pipe) || p.at(PipePipe) {
		if err := p.deeper(); err != nil {
			return nil, err
		}
		det := p.next().Kind == PipePipe
		r, err := p.parseSerial()
		if err != nil {
			return nil, err
		}
		l = &ChoiceExpr{L: l, R: r, Det: det}
	}
	return l, nil
}

func (p *Parser) parseSerial() (Expr, error) {
	defer p.leave(p.depth)
	l, err := p.parsePostfix()
	if err != nil {
		return nil, err
	}
	for p.at(DotDot) {
		if err := p.deeper(); err != nil {
			return nil, err
		}
		p.next()
		r, err := p.parsePostfix()
		if err != nil {
			return nil, err
		}
		l = &SerialExpr{L: l, R: r}
	}
	return l, nil
}

func (p *Parser) parsePostfix() (Expr, error) {
	defer p.leave(p.depth)
	e, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for {
		switch p.cur().Kind {
		case Star, StarStar, Bang, BangBang, BangAt, AtSign:
		default:
			return e, nil
		}
		if err := p.deeper(); err != nil {
			return nil, err
		}
		switch op := p.next().Kind; op {
		case Star, StarStar:
			pat, err := p.parsePattern()
			if err != nil {
				return nil, err
			}
			e = &StarExpr{Operand: e, Exit: pat, Det: op == StarStar}
		case AtSign:
			num, err := p.expect(INT)
			if err != nil {
				return nil, err
			}
			e = &AtExpr{Operand: e, Node: num.Val}
		default:
			tag, err := p.parseAngledIdent()
			if err != nil {
				return nil, err
			}
			e = &SplitExpr{Operand: e, Tag: tag, Det: op == BangBang, Placed: op == BangAt}
		}
	}
}

func (p *Parser) parseAngledIdent() (string, error) {
	if _, err := p.expect(Lt); err != nil {
		return "", err
	}
	name, err := p.expect(IDENT)
	if err != nil {
		return "", err
	}
	if _, err := p.expect(Gt); err != nil {
		return "", err
	}
	return name.Text, nil
}

func (p *Parser) parsePrimary() (Expr, error) {
	switch p.cur().Kind {
	case IDENT:
		t := p.next()
		return &NameRef{Name: t.Text, Pos: t.Pos}, nil
	case LParen:
		defer p.leave(p.depth)
		if err := p.deeper(); err != nil {
			return nil, err
		}
		p.next()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(RParen); err != nil {
			return nil, err
		}
		return e, nil
	case LBrack:
		return p.parseFilter()
	case LSync:
		return p.parseSync()
	default:
		return nil, p.errf("expected a network expression, found %s", p.cur())
	}
}

// parseFilter parses [] or [ pattern -> tmpl ; tmpl ; ... ].
func (p *Parser) parseFilter() (Expr, error) {
	open, _ := p.expect(LBrack)
	if p.accept(RBrack) {
		return &FilterExpr{Pos: open.Pos}, nil
	}
	pat, err := p.parsePattern()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(Arrow); err != nil {
		return nil, err
	}
	rule := &FilterRuleAST{Pattern: pat}
	for {
		tmpl, err := p.parseOutTemplate()
		if err != nil {
			return nil, err
		}
		rule.Outputs = append(rule.Outputs, tmpl)
		if !p.accept(Semi) {
			break
		}
	}
	if _, err := p.expect(RBrack); err != nil {
		return nil, err
	}
	return &FilterExpr{Rule: rule, Pos: open.Pos}, nil
}

// FilterRuleAST couples a filter's match pattern with its output templates.
type FilterRuleAST struct {
	Pattern *PatternAST
	Outputs []OutTemplateAST
}

// parseSync parses [| pattern, pattern, ... |].
func (p *Parser) parseSync() (Expr, error) {
	open, _ := p.expect(LSync)
	var pats []*PatternAST
	for {
		pat, err := p.parsePattern()
		if err != nil {
			return nil, err
		}
		pats = append(pats, pat)
		if !p.accept(Comma) {
			break
		}
	}
	if _, err := p.expect(RSync); err != nil {
		return nil, err
	}
	return &SyncExpr{Patterns: pats, Pos: open.Pos}, nil
}

// parsePattern parses { item, item, ... } where each item is a label
// (field, <tag>, <#btag>) or a guard expression over tags such as
// <tasks> == <cnt>.
func (p *Parser) parsePattern() (*PatternAST, error) {
	open, err := p.expect(LBrace)
	if err != nil {
		return nil, err
	}
	pat := &PatternAST{Pos: open.Pos}
	for !p.at(RBrace) {
		if err := p.parsePatternItem(pat); err != nil {
			return nil, err
		}
		if !p.accept(Comma) {
			break
		}
	}
	if _, err := p.expect(RBrace); err != nil {
		return nil, err
	}
	return pat, nil
}

// parsePatternItem distinguishes plain labels from guard expressions by
// lookahead: a label is an identifier or angled tag followed directly by
// ',' or '}'.
func (p *Parser) parsePatternItem(pat *PatternAST) error {
	pos := p.cur().Pos
	switch p.cur().Kind {
	case IDENT:
		// field label or bare-identifier expression
		name := p.next().Text
		if p.at(Comma) || p.at(RBrace) {
			pat.Labels = append(pat.Labels, LabelItem{Name: name, Pos: pos})
			return nil
		}
		left := TagExprAST(&TagRef{Name: name, Pos: pos})
		return p.continueGuard(pat, left)
	case Lt:
		p.next()
		if p.accept(Hash) {
			name, err := p.expect(IDENT)
			if err != nil {
				return err
			}
			if _, err := p.expect(Gt); err != nil {
				return err
			}
			pat.Labels = append(pat.Labels, LabelItem{Name: name.Text, BTag: true, Pos: pos})
			return nil
		}
		name, err := p.expect(IDENT)
		if err != nil {
			return err
		}
		if _, err := p.expect(Gt); err != nil {
			return err
		}
		if p.at(Comma) || p.at(RBrace) {
			pat.Labels = append(pat.Labels, LabelItem{Name: name.Text, Tag: true, Pos: pos})
			return nil
		}
		left := TagExprAST(&TagRef{Name: name.Text, Angled: true, Pos: pos})
		return p.continueGuard(pat, left)
	default:
		// expression starting with a literal, '(' or unary minus
		e, err := p.parseTagExpr()
		if err != nil {
			return err
		}
		if !IsComparison(e) {
			return fmt.Errorf("%s: pattern guard must be a comparison, got %s", pos, e)
		}
		pat.Guards = append(pat.Guards, e)
		return nil
	}
}

// continueGuard finishes parsing a guard whose first operand has already
// been consumed.
func (p *Parser) continueGuard(pat *PatternAST, left TagExprAST) error {
	e, err := p.parseCmpFrom(left)
	if err != nil {
		return err
	}
	if !IsComparison(e) {
		return fmt.Errorf("pattern guard must be a comparison, got %s", e)
	}
	pat.Guards = append(pat.Guards, e)
	return nil
}

// parseOutTemplate parses { item, item, ... } of a filter output.
func (p *Parser) parseOutTemplate() (OutTemplateAST, error) {
	open, err := p.expect(LBrace)
	if err != nil {
		return OutTemplateAST{}, err
	}
	tmpl := OutTemplateAST{Pos: open.Pos}
	for !p.at(RBrace) {
		it, err := p.parseOutItem()
		if err != nil {
			return OutTemplateAST{}, err
		}
		tmpl.Items = append(tmpl.Items, it)
		if !p.accept(Comma) {
			break
		}
	}
	if _, err := p.expect(RBrace); err != nil {
		return OutTemplateAST{}, err
	}
	return tmpl, nil
}

// parseOutItem parses: name | name -> name | <name> | <name = expr> |
// <name += expr> | <name -= expr>.
func (p *Parser) parseOutItem() (OutItemAST, error) {
	pos := p.cur().Pos
	if p.at(IDENT) {
		name := p.next().Text
		if p.accept(Arrow) {
			to, err := p.expect(IDENT)
			if err != nil {
				return OutItemAST{}, err
			}
			return OutItemAST{Kind: OutRenameField, Name: to.Text, From: name, Pos: pos}, nil
		}
		return OutItemAST{Kind: OutCopyField, Name: name, Pos: pos}, nil
	}
	if _, err := p.expect(Lt); err != nil {
		return OutItemAST{}, err
	}
	name, err := p.expect(IDENT)
	if err != nil {
		return OutItemAST{}, err
	}
	switch {
	case p.accept(Gt):
		return OutItemAST{Kind: OutCopyTag, Name: name.Text, Pos: pos}, nil
	case p.at(Assign) || p.at(PlusEq) || p.at(MinusEq):
		op := p.next().Kind
		// Arithmetic only: a toplevel '>' must close the angle bracket,
		// not act as a comparison. Comparisons remain available inside
		// parentheses.
		e, err := p.parseAdd()
		if err != nil {
			return OutItemAST{}, err
		}
		if _, err := p.expect(Gt); err != nil {
			return OutItemAST{}, err
		}
		return OutItemAST{Kind: OutAssignTag, Name: name.Text, Expr: e, AddOp: op, Pos: pos}, nil
	default:
		return OutItemAST{}, p.errf("expected '>', '=', '+=' or '-=' in tag template, found %s", p.cur())
	}
}

// parseTagExpr parses a full tag expression (comparison precedence level).
func (p *Parser) parseTagExpr() (TagExprAST, error) {
	l, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	return p.parseCmpFrom(l)
}

// parseCmpFrom continues at comparison precedence with left already parsed
// (left may still need additive continuation, e.g. <a> + 1 == 2).
func (p *Parser) parseCmpFrom(left TagExprAST) (TagExprAST, error) {
	l, err := p.parseAddFrom(left)
	if err != nil {
		return nil, err
	}
	switch p.cur().Kind {
	case EqEq, Neq, Lt, Gt, Le, Ge:
		op := p.next().Kind
		r, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		return &BinExpr{Op: op, L: l, R: r}, nil
	}
	return l, nil
}

func (p *Parser) parseAdd() (TagExprAST, error) {
	l, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	return p.parseAddFrom(l)
}

// parseAddFrom continues additive/multiplicative parsing with left parsed.
func (p *Parser) parseAddFrom(left TagExprAST) (TagExprAST, error) {
	defer p.leave(p.depth)
	l, err := p.parseMulFrom(left)
	if err != nil {
		return nil, err
	}
	for p.at(Plus) || p.at(Minus) {
		if err := p.deeper(); err != nil {
			return nil, err
		}
		op := p.next().Kind
		r, err := p.parseMul()
		if err != nil {
			return nil, err
		}
		l = &BinExpr{Op: op, L: l, R: r}
	}
	return l, nil
}

func (p *Parser) parseMul() (TagExprAST, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	return p.parseMulFrom(l)
}

func (p *Parser) parseMulFrom(left TagExprAST) (TagExprAST, error) {
	defer p.leave(p.depth)
	l := left
	for p.at(Star) || p.at(Slash) || p.at(Percent) {
		if err := p.deeper(); err != nil {
			return nil, err
		}
		op := p.next().Kind
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = &BinExpr{Op: op, L: l, R: r}
	}
	return l, nil
}

func (p *Parser) parseUnary() (TagExprAST, error) {
	if p.at(Minus) {
		defer p.leave(p.depth)
		if err := p.deeper(); err != nil {
			return nil, err
		}
		pos := p.next().Pos
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &BinExpr{Op: Minus, L: &IntLit{Val: 0, Pos: pos}, R: e}, nil
	}
	return p.parseAtom()
}

func (p *Parser) parseAtom() (TagExprAST, error) {
	switch p.cur().Kind {
	case INT:
		t := p.next()
		return &IntLit{Val: t.Val, Pos: t.Pos}, nil
	case IDENT:
		t := p.next()
		return &TagRef{Name: t.Text, Pos: t.Pos}, nil
	case Lt:
		p.next()
		name, err := p.expect(IDENT)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(Gt); err != nil {
			return nil, err
		}
		return &TagRef{Name: name.Text, Angled: true}, nil
	case LParen:
		defer p.leave(p.depth)
		if err := p.deeper(); err != nil {
			return nil, err
		}
		p.next()
		e, err := p.parseTagExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(RParen); err != nil {
			return nil, err
		}
		return e, nil
	default:
		return nil, p.errf("expected a tag expression, found %s", p.cur())
	}
}
