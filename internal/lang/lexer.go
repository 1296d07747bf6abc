package lang

import (
	"fmt"
	"strconv"
)

// Lexer turns S-Net source text into tokens. It supports //-line and
// /*block*/ comments and tracks line/column positions.
type Lexer struct {
	src  string
	pos  int
	line int
	col  int
}

// NewLexer creates a lexer over src.
func NewLexer(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1}
}

// Lex tokenizes the whole input. The returned slice always ends with an EOF
// token.
func Lex(src string) ([]Token, error) {
	lx := NewLexer(src)
	var toks []Token
	for {
		t, err := lx.Next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.Kind == EOF {
			return toks, nil
		}
	}
}

func (l *Lexer) peek() byte {
	if l.pos >= len(l.src) {
		return 0
	}
	return l.src[l.pos]
}

func (l *Lexer) peek2() byte {
	if l.pos+1 >= len(l.src) {
		return 0
	}
	return l.src[l.pos+1]
}

func (l *Lexer) advance() byte {
	c := l.src[l.pos]
	l.pos++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func (l *Lexer) skipSpaceAndComments() error {
	for l.pos < len(l.src) {
		c := l.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance()
		case c == '/' && l.peek2() == '/':
			for l.pos < len(l.src) && l.peek() != '\n' {
				l.advance()
			}
		case c == '/' && l.peek2() == '*':
			start := Pos{l.line, l.col}
			l.advance()
			l.advance()
			for {
				if l.pos >= len(l.src) {
					return fmt.Errorf("%s: unterminated block comment", start)
				}
				if l.peek() == '*' && l.peek2() == '/' {
					l.advance()
					l.advance()
					break
				}
				l.advance()
			}
		default:
			return nil
		}
	}
	return nil
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentPart(c byte) bool { return isIdentStart(c) || (c >= '0' && c <= '9') }

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// Next returns the next token.
func (l *Lexer) Next() (Token, error) {
	if err := l.skipSpaceAndComments(); err != nil {
		return Token{}, err
	}
	pos := Pos{l.line, l.col}
	if l.pos >= len(l.src) {
		return Token{Kind: EOF, Pos: pos}, nil
	}
	c := l.peek()

	switch {
	case isIdentStart(c):
		start := l.pos
		for l.pos < len(l.src) && isIdentPart(l.peek()) {
			l.advance()
		}
		text := l.src[start:l.pos]
		switch text {
		case "box":
			return Token{Kind: KwBox, Text: text, Pos: pos}, nil
		case "net":
			return Token{Kind: KwNet, Text: text, Pos: pos}, nil
		case "connect":
			return Token{Kind: KwConnect, Text: text, Pos: pos}, nil
		}
		return Token{Kind: IDENT, Text: text, Pos: pos}, nil

	case isDigit(c):
		start := l.pos
		for l.pos < len(l.src) && isDigit(l.peek()) {
			l.advance()
		}
		text := l.src[start:l.pos]
		val, err := strconv.Atoi(text)
		if err != nil {
			return Token{}, fmt.Errorf("%s: integer literal %s out of range", pos, text)
		}
		return Token{Kind: INT, Text: text, Val: val, Pos: pos}, nil
	}

	two := func(kind TokKind) (Token, error) {
		l.advance()
		l.advance()
		return Token{Kind: kind, Pos: pos}, nil
	}
	one := func(kind TokKind) (Token, error) {
		l.advance()
		return Token{Kind: kind, Pos: pos}, nil
	}

	switch c {
	case '(':
		return one(LParen)
	case ')':
		return one(RParen)
	case '{':
		return one(LBrace)
	case '}':
		return one(RBrace)
	case '[':
		if l.peek2() == '|' {
			return two(LSync)
		}
		return one(LBrack)
	case ']':
		return one(RBrack)
	case '|':
		switch l.peek2() {
		case ']':
			return two(RSync)
		case '|':
			return two(PipePipe)
		}
		return one(Pipe)
	case '.':
		if l.peek2() == '.' {
			return two(DotDot)
		}
		return Token{}, fmt.Errorf("%s: unexpected '.' (did you mean '..'?)", pos)
	case '*':
		if l.peek2() == '*' {
			return two(StarStar)
		}
		return one(Star)
	case '!':
		switch l.peek2() {
		case '@':
			return two(BangAt)
		case '!':
			return two(BangBang)
		case '=':
			return two(Neq)
		}
		return one(Bang)
	case '@':
		return one(AtSign)
	case '-':
		switch l.peek2() {
		case '>':
			return two(Arrow)
		case '=':
			return two(MinusEq)
		}
		return one(Minus)
	case '+':
		if l.peek2() == '=' {
			return two(PlusEq)
		}
		return one(Plus)
	case ';':
		return one(Semi)
	case ',':
		return one(Comma)
	case '<':
		if l.peek2() == '=' {
			return two(Le)
		}
		return one(Lt)
	case '>':
		if l.peek2() == '=' {
			return two(Ge)
		}
		return one(Gt)
	case '=':
		if l.peek2() == '=' {
			return two(EqEq)
		}
		return one(Assign)
	case '/':
		return one(Slash)
	case '%':
		return one(Percent)
	case '#':
		return one(Hash)
	}
	return Token{}, fmt.Errorf("%s: unexpected character %q", pos, string(c))
}
