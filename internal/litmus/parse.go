// parse.go is the litmus-test text format: a small DSL for the threads,
// instructions, locations, and fences of a machine program, an
// init/exists condition clause matching Condition, and per-model
// expectation annotations. The built-in registry (registry.litmus) and
// the files cmd/litmusrun -f loads are written in it.
//
// The grammar (one or more test blocks per file; `//` comments; clauses
// in any order, at most one description/init/exists per test):
//
//	test "NAME" {
//	  description "free text"
//	  init { x = 0 y = 0 }
//	  thread ["name"] {
//	    ST x = 1          // store immediate or register
//	    r1 = LD y         // load into register
//	    r2 = r1 + 1       // register/immediate add
//	    r3 = RMW x += 1   // atomic read-modify-write
//	    FENCE             // full fence; ACQ and REL are the one-way fences
//	  }
//	  exists { t0:r1 = 0 && x = 1 }
//	  model SC forbidden
//	  model TSO allowed
//	}
//
// Condition references use machine.Outcome.Lookup syntax: a bare
// location name reads memory, "t<i>:<reg>" reads thread i's register.
// Model names in expectation clauses must resolve in the memmodel
// registry — an expectation for an unknown model is a parse error with
// its position, never a silent allowed=false.
//
// Parse errors carry 1-based line:column positions. Print is the
// deterministic inverse: for every parseable input, parse→print→parse
// yields identical tests and identical printed bytes (the fuzz target
// FuzzParseLitmus holds the property over arbitrary inputs).

package litmus

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"memreliability/internal/machine"
	"memreliability/internal/memmodel"
)

// Position is a 1-based line/column (in runes) source position.
type Position struct {
	Line, Col int
}

func (p Position) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// ParseError is a syntax or semantic error with its source position.
type ParseError struct {
	// Name is the source name given to Parse ("" for anonymous input).
	Name string
	// Pos is where the error was detected.
	Pos Position
	// Msg describes the error.
	Msg string
}

func (e *ParseError) Error() string {
	if e.Name == "" {
		return fmt.Sprintf("%s: %s", e.Pos, e.Msg)
	}
	return fmt.Sprintf("%s:%s: %s", e.Name, e.Pos, e.Msg)
}

// Reserved instruction keywords; they cannot name registers, locations,
// or threads.
var reserved = map[string]bool{
	"ST": true, "LD": true, "RMW": true,
	"FENCE": true, "ACQ": true, "REL": true,
}

// --- lexer ---

type tokKind int

const (
	tokEOF tokKind = iota
	tokIdent
	tokInt
	tokString
	tokLBrace
	tokRBrace
	tokEq
	tokPlus
	tokPlusEq
	tokAndAnd
)

func (k tokKind) String() string {
	switch k {
	case tokEOF:
		return "end of input"
	case tokIdent:
		return "identifier"
	case tokInt:
		return "integer"
	case tokString:
		return "string"
	case tokLBrace:
		return "'{'"
	case tokRBrace:
		return "'}'"
	case tokEq:
		return "'='"
	case tokPlus:
		return "'+'"
	case tokPlusEq:
		return "'+='"
	case tokAndAnd:
		return "'&&'"
	default:
		return "token"
	}
}

type token struct {
	kind tokKind
	text string // ident text, unquoted string value
	num  int    // integer value
	pos  Position
}

type lexer struct {
	name string
	src  string
	off  int
	pos  Position
}

func newLexer(name, src string) *lexer {
	return &lexer{name: name, src: src, pos: Position{Line: 1, Col: 1}}
}

func (l *lexer) errorf(pos Position, format string, args ...any) *ParseError {
	return &ParseError{Name: l.name, Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

// advance consumes one rune, tracking line/col.
func (l *lexer) advance() rune {
	r, size := utf8.DecodeRuneInString(l.src[l.off:])
	l.off += size
	if r == '\n' {
		l.pos.Line++
		l.pos.Col = 1
	} else {
		l.pos.Col++
	}
	return r
}

func (l *lexer) peek() rune {
	r, _ := utf8.DecodeRuneInString(l.src[l.off:])
	return r
}

func (l *lexer) eof() bool { return l.off >= len(l.src) }

func isIdentStart(r rune) bool { return r == '_' || unicode.IsLetter(r) }
func isIdentPart(r rune) bool  { return r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r) }

// lex tokenizes the whole input.
func (l *lexer) lex() ([]token, *ParseError) {
	var toks []token
	for {
		// Skip whitespace and // comments.
		for !l.eof() {
			r := l.peek()
			if r == '/' && strings.HasPrefix(l.src[l.off:], "//") {
				for !l.eof() && l.peek() != '\n' {
					l.advance()
				}
				continue
			}
			if r == ' ' || r == '\t' || r == '\r' || r == '\n' {
				l.advance()
				continue
			}
			break
		}
		if l.eof() {
			toks = append(toks, token{kind: tokEOF, pos: l.pos})
			return toks, nil
		}
		pos := l.pos
		r := l.peek()
		switch {
		case r == '{':
			l.advance()
			toks = append(toks, token{kind: tokLBrace, pos: pos})
		case r == '}':
			l.advance()
			toks = append(toks, token{kind: tokRBrace, pos: pos})
		case r == '=':
			l.advance()
			toks = append(toks, token{kind: tokEq, pos: pos})
		case r == '+':
			l.advance()
			if !l.eof() && l.peek() == '=' {
				l.advance()
				toks = append(toks, token{kind: tokPlusEq, pos: pos})
			} else {
				toks = append(toks, token{kind: tokPlus, pos: pos})
			}
		case r == '&':
			l.advance()
			if l.eof() || l.peek() != '&' {
				return nil, l.errorf(pos, "expected '&&'")
			}
			l.advance()
			toks = append(toks, token{kind: tokAndAnd, pos: pos})
		case r == '"':
			tok, err := l.lexString(pos)
			if err != nil {
				return nil, err
			}
			toks = append(toks, tok)
		case r == '-' || unicode.IsDigit(r):
			tok, err := l.lexInt(pos)
			if err != nil {
				return nil, err
			}
			toks = append(toks, tok)
		case isIdentStart(r):
			toks = append(toks, l.lexIdent(pos))
		default:
			return nil, l.errorf(pos, "unexpected character %q", r)
		}
	}
}

func (l *lexer) lexString(pos Position) (token, *ParseError) {
	start := l.off
	l.advance() // opening quote
	for {
		if l.eof() || l.peek() == '\n' {
			return token{}, l.errorf(pos, "unterminated string")
		}
		r := l.advance()
		if r == '\\' {
			if l.eof() || l.peek() == '\n' {
				return token{}, l.errorf(pos, "unterminated string")
			}
			l.advance() // escaped rune; strconv.Unquote validates it
			continue
		}
		if r == '"' {
			break
		}
	}
	val, err := strconv.Unquote(l.src[start:l.off])
	if err != nil {
		return token{}, l.errorf(pos, "bad string literal: %v", err)
	}
	return token{kind: tokString, text: val, pos: pos}, nil
}

func (l *lexer) lexInt(pos Position) (token, *ParseError) {
	start := l.off
	if l.peek() == '-' {
		l.advance()
	}
	if l.eof() || !unicode.IsDigit(l.peek()) {
		return token{}, l.errorf(pos, "expected digits after '-'")
	}
	for !l.eof() && unicode.IsDigit(l.peek()) {
		l.advance()
	}
	n, err := strconv.Atoi(l.src[start:l.off])
	if err != nil {
		return token{}, l.errorf(pos, "bad integer %q: %v", l.src[start:l.off], err)
	}
	return token{kind: tokInt, num: n, pos: pos}, nil
}

// lexIdent scans an identifier, or a condition reference of the form
// "ident:ident" (e.g. "t0:r1").
func (l *lexer) lexIdent(pos Position) token {
	start := l.off
	for !l.eof() && isIdentPart(l.peek()) {
		l.advance()
	}
	if !l.eof() && l.peek() == ':' {
		// Lookahead: ':' followed by an ident continues the reference.
		if r, _ := utf8.DecodeRuneInString(l.src[l.off+1:]); isIdentPart(r) {
			l.advance() // ':'
			for !l.eof() && isIdentPart(l.peek()) {
				l.advance()
			}
		}
	}
	return token{kind: tokIdent, text: l.src[start:l.off], pos: pos}
}

// --- parser ---

type parser struct {
	name string
	toks []token
	i    int
}

// Parse parses one or more test blocks. The name labels error positions
// (usually a file name); it may be empty.
func Parse(name string, src []byte) ([]Test, error) {
	toks, lerr := newLexer(name, string(src)).lex()
	if lerr != nil {
		return nil, lerr
	}
	p := &parser{name: name, toks: toks}
	var tests []Test
	seen := map[string]bool{}
	for p.cur().kind != tokEOF {
		headerPos := p.cur().pos
		t, err := p.parseTest()
		if err != nil {
			return nil, err
		}
		if seen[t.Name] {
			return nil, p.errorf(headerPos, "duplicate test %q", t.Name)
		}
		seen[t.Name] = true
		tests = append(tests, t)
	}
	return tests, nil
}

func (p *parser) cur() token  { return p.toks[p.i] }
func (p *parser) next() token { t := p.toks[p.i]; p.i++; return t }

func (p *parser) errorf(pos Position, format string, args ...any) *ParseError {
	return &ParseError{Name: p.name, Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

// expect consumes a token of the given kind or fails with its position.
func (p *parser) expect(kind tokKind, ctx string) (token, error) {
	t := p.cur()
	if t.kind != kind {
		return token{}, p.errorf(t.pos, "expected %s in %s, got %s", kind, ctx, describe(t))
	}
	p.i++
	return t, nil
}

func describe(t token) string {
	switch t.kind {
	case tokIdent:
		return fmt.Sprintf("%q", t.text)
	case tokInt:
		return fmt.Sprintf("integer %d", t.num)
	case tokString:
		return fmt.Sprintf("string %q", t.text)
	default:
		return t.kind.String()
	}
}

// ident consumes a plain identifier (no ':' reference, not a reserved
// instruction keyword).
func (p *parser) ident(ctx string) (token, error) {
	t, err := p.expect(tokIdent, ctx)
	if err != nil {
		return token{}, err
	}
	if strings.Contains(t.text, ":") {
		return token{}, p.errorf(t.pos, "reference %q not allowed in %s", t.text, ctx)
	}
	if reserved[t.text] {
		return token{}, p.errorf(t.pos, "reserved word %q cannot name a %s", t.text, ctx)
	}
	return t, nil
}

func (p *parser) parseTest() (Test, error) {
	var t Test
	kw, err := p.expect(tokIdent, "file")
	if err != nil {
		return t, err
	}
	if kw.text != "test" {
		return t, p.errorf(kw.pos, "expected \"test\", got %q", kw.text)
	}
	nameTok, err := p.expect(tokString, "test header")
	if err != nil {
		return t, err
	}
	if nameTok.text == "" {
		return t, p.errorf(nameTok.pos, "empty test name")
	}
	t.Name = nameTok.text
	if _, err := p.expect(tokLBrace, "test header"); err != nil {
		return t, err
	}

	var haveDesc, haveInit, haveExists bool
	for {
		tok := p.cur()
		if tok.kind == tokRBrace {
			p.i++
			break
		}
		if tok.kind != tokIdent {
			return t, p.errorf(tok.pos, "expected a clause (description, init, thread, exists, model) or '}', got %s", describe(tok))
		}
		switch tok.text {
		case "description":
			if haveDesc {
				return t, p.errorf(tok.pos, "duplicate description clause")
			}
			haveDesc = true
			p.i++
			s, err := p.expect(tokString, "description")
			if err != nil {
				return t, err
			}
			t.Description = s.text
		case "init":
			if haveInit {
				return t, p.errorf(tok.pos, "duplicate init clause")
			}
			haveInit = true
			p.i++
			init, err := p.parseInit()
			if err != nil {
				return t, err
			}
			t.Prog.Init = init
		case "thread":
			p.i++
			th, err := p.parseThread()
			if err != nil {
				return t, err
			}
			t.Prog.Threads = append(t.Prog.Threads, th)
		case "exists":
			if haveExists {
				return t, p.errorf(tok.pos, "duplicate exists clause")
			}
			haveExists = true
			p.i++
			cond, err := p.parseExists()
			if err != nil {
				return t, err
			}
			t.Target = cond
		case "model":
			p.i++
			if err := p.parseExpect(&t); err != nil {
				return t, err
			}
		default:
			return t, p.errorf(tok.pos, "unknown clause %q (want description, init, thread, exists, or model)", tok.text)
		}
	}
	if !haveExists {
		return t, p.errorf(kw.pos, "test %q has no exists clause", t.Name)
	}
	if len(t.Prog.Threads) == 0 {
		return t, p.errorf(kw.pos, "test %q has no threads", t.Name)
	}
	return t, nil
}

func (p *parser) parseInit() (map[string]int, error) {
	if _, err := p.expect(tokLBrace, "init"); err != nil {
		return nil, err
	}
	init := map[string]int{}
	for p.cur().kind != tokRBrace {
		loc, err := p.ident("init location")
		if err != nil {
			return nil, err
		}
		if _, dup := init[loc.text]; dup {
			return nil, p.errorf(loc.pos, "duplicate init location %q", loc.text)
		}
		if _, err := p.expect(tokEq, "init"); err != nil {
			return nil, err
		}
		v, err := p.expect(tokInt, "init")
		if err != nil {
			return nil, err
		}
		init[loc.text] = v.num
	}
	p.i++ // '}'
	if len(init) == 0 {
		// An empty block says nothing, and the canonical form omits it:
		// parse it to the same nil map as an absent clause.
		return nil, nil
	}
	return init, nil
}

func (p *parser) parseThread() (machine.Thread, error) {
	var th machine.Thread
	if p.cur().kind == tokString {
		th.Name = p.next().text
	}
	if _, err := p.expect(tokLBrace, "thread"); err != nil {
		return th, err
	}
	for p.cur().kind != tokRBrace {
		op, err := p.parseInstr()
		if err != nil {
			return th, err
		}
		th.Ops = append(th.Ops, op)
	}
	p.i++ // '}'
	return th, nil
}

// parseInstr parses one instruction:
//
//	ST <loc> = <operand>
//	<reg> = LD <loc>
//	<reg> = RMW <loc> += <int>
//	<reg> = <operand> + <operand>
//	FENCE | ACQ | REL
func (p *parser) parseInstr() (machine.Op, error) {
	t, err := p.expect(tokIdent, "thread body")
	if err != nil {
		return nil, err
	}
	switch t.text {
	case "FENCE":
		return machine.FenceOp{Kind: memmodel.FenceFull}, nil
	case "ACQ":
		return machine.FenceOp{Kind: memmodel.FenceAcquire}, nil
	case "REL":
		return machine.FenceOp{Kind: memmodel.FenceRelease}, nil
	case "ST":
		loc, err := p.ident("store location")
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokEq, "store"); err != nil {
			return nil, err
		}
		src, err := p.parseOperand("store source")
		if err != nil {
			return nil, err
		}
		return machine.StoreOp{Addr: loc.text, Src: src}, nil
	case "LD", "RMW":
		return nil, p.errorf(t.pos, "%s needs a destination register (\"r = %s x\")", t.text, t.text)
	}
	// Destination-register forms.
	if strings.Contains(t.text, ":") {
		return nil, p.errorf(t.pos, "reference %q not allowed in thread body", t.text)
	}
	dst := t
	if _, err := p.expect(tokEq, "instruction"); err != nil {
		return nil, err
	}
	switch p.cur().text {
	case "LD":
		if p.cur().kind == tokIdent {
			p.i++
			loc, err := p.ident("load location")
			if err != nil {
				return nil, err
			}
			return machine.LoadOp{Addr: loc.text, Dst: dst.text}, nil
		}
	case "RMW":
		if p.cur().kind == tokIdent {
			p.i++
			loc, err := p.ident("RMW location")
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokPlusEq, "RMW"); err != nil {
				return nil, err
			}
			delta, err := p.expect(tokInt, "RMW")
			if err != nil {
				return nil, err
			}
			return machine.RMWAddOp{Addr: loc.text, Dst: dst.text, Delta: delta.num}, nil
		}
	}
	a, err := p.parseOperand("add operand")
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokPlus, "add"); err != nil {
		return nil, err
	}
	b, err := p.parseOperand("add operand")
	if err != nil {
		return nil, err
	}
	return machine.AddOp{Dst: dst.text, A: a, B: b}, nil
}

func (p *parser) parseOperand(ctx string) (machine.Operand, error) {
	t := p.cur()
	switch t.kind {
	case tokInt:
		p.i++
		return machine.Imm(t.num), nil
	case tokIdent:
		reg, err := p.ident(ctx)
		if err != nil {
			return machine.Operand{}, err
		}
		return machine.Reg(reg.text), nil
	default:
		return machine.Operand{}, p.errorf(t.pos, "expected register or integer as %s, got %s", ctx, describe(t))
	}
}

func (p *parser) parseExists() (Condition, error) {
	if _, err := p.expect(tokLBrace, "exists"); err != nil {
		return nil, err
	}
	cond := Condition{}
	for {
		ref, err := p.expect(tokIdent, "exists")
		if err != nil {
			return nil, err
		}
		// The printer's validation is the gate: anything parse accepts
		// here must round-trip, so a ref with a reserved or non-identifier
		// part (the lexer consumes e.g. "A00:0" as one token) errors now.
		if err := checkRef(ref.text); err != nil {
			return nil, p.errorf(ref.pos, "%s", err)
		}
		if _, dup := cond[ref.text]; dup {
			return nil, p.errorf(ref.pos, "duplicate condition reference %q", ref.text)
		}
		if _, err := p.expect(tokEq, "exists"); err != nil {
			return nil, err
		}
		v, err := p.expect(tokInt, "exists")
		if err != nil {
			return nil, err
		}
		cond[ref.text] = v.num
		if p.cur().kind == tokAndAnd {
			p.i++
			continue
		}
		break
	}
	if _, err := p.expect(tokRBrace, "exists"); err != nil {
		return nil, err
	}
	return cond, nil
}

// parseExpect parses one `model NAME allowed|forbidden` clause. The name
// must resolve in the memmodel registry: an expectation for an unknown
// model is a positioned parse error, so a typo can never masquerade as a
// silently-forbidden outcome.
func (p *parser) parseExpect(t *Test) error {
	nameTok, err := p.ident("model expectation")
	if err != nil {
		return err
	}
	m, merr := memmodel.ByName(nameTok.text)
	if merr != nil {
		return p.errorf(nameTok.pos, "unknown model %q in expectation (%v)", nameTok.text, merr)
	}
	verdict, err := p.expect(tokIdent, "model expectation")
	if err != nil {
		return err
	}
	var allowed bool
	switch verdict.text {
	case "allowed":
		allowed = true
	case "forbidden":
		allowed = false
	default:
		return p.errorf(verdict.pos, "expected \"allowed\" or \"forbidden\", got %q", verdict.text)
	}
	if t.AllowedUnder == nil {
		t.AllowedUnder = map[string]bool{}
	}
	if _, dup := t.AllowedUnder[m.Name()]; dup {
		return p.errorf(nameTok.pos, "duplicate expectation for model %s", m.Name())
	}
	t.AllowedUnder[m.Name()] = allowed
	return nil
}
