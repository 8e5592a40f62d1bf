// print.go is the deterministic printer: the inverse of Parse. Printing
// the same test always yields identical bytes (maps are emitted in
// sorted or registry order), and Parse(Print(t)) reconstructs t exactly;
// registry.litmus is in exactly this canonical form.

package litmus

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"memreliability/internal/machine"
	"memreliability/internal/memmodel"
)

// Print renders tests in the canonical text form, separated by blank
// lines. It errors on tests the grammar cannot express (unknown op
// types, names that are not identifiers, expectations for unregistered
// models) — loudly, rather than printing something that will not parse
// back.
func Print(tests ...Test) ([]byte, error) {
	var sb strings.Builder
	for i, t := range tests {
		if i > 0 {
			sb.WriteString("\n")
		}
		if err := printTest(&sb, t); err != nil {
			return nil, fmt.Errorf("litmus: print test %q: %w", t.Name, err)
		}
	}
	return []byte(sb.String()), nil
}

func printTest(sb *strings.Builder, t Test) error {
	if t.Name == "" {
		return fmt.Errorf("empty test name")
	}
	fmt.Fprintf(sb, "test %s {\n", strconv.Quote(t.Name))
	if t.Description != "" {
		fmt.Fprintf(sb, "\tdescription %s\n", strconv.Quote(t.Description))
	}
	if len(t.Prog.Init) > 0 {
		locs := make([]string, 0, len(t.Prog.Init))
		for loc := range t.Prog.Init {
			if err := checkIdent(loc, "init location"); err != nil {
				return err
			}
			locs = append(locs, loc)
		}
		sort.Strings(locs)
		sb.WriteString("\tinit {")
		for _, loc := range locs {
			fmt.Fprintf(sb, " %s = %d", loc, t.Prog.Init[loc])
		}
		sb.WriteString(" }\n")
	}
	for _, th := range t.Prog.Threads {
		if th.Name != "" {
			fmt.Fprintf(sb, "\tthread %s {\n", strconv.Quote(th.Name))
		} else {
			sb.WriteString("\tthread {\n")
		}
		for _, op := range th.Ops {
			line, err := printOp(op)
			if err != nil {
				return err
			}
			fmt.Fprintf(sb, "\t\t%s\n", line)
		}
		sb.WriteString("\t}\n")
	}
	if len(t.Target) > 0 {
		refs := make([]string, 0, len(t.Target))
		for ref := range t.Target {
			if err := checkRef(ref); err != nil {
				return err
			}
			refs = append(refs, ref)
		}
		sort.Strings(refs)
		clauses := make([]string, len(refs))
		for i, ref := range refs {
			clauses[i] = fmt.Sprintf("%s = %d", ref, t.Target[ref])
		}
		fmt.Fprintf(sb, "\texists { %s }\n", strings.Join(clauses, " && "))
	}
	if err := printExpectations(sb, t); err != nil {
		return err
	}
	sb.WriteString("}\n")
	return nil
}

// printExpectations emits one `model NAME allowed|forbidden` line per
// expectation, in memmodel registration order. An expectation for a
// model that is not registered is an error: it could never parse back,
// and silently dropping it would turn a typo into a missing verdict.
func printExpectations(sb *strings.Builder, t Test) error {
	printed := 0
	for _, m := range memmodel.Registered() {
		allowed, ok := t.AllowedUnder[m.Name()]
		if !ok {
			continue
		}
		verdict := "forbidden"
		if allowed {
			verdict = "allowed"
		}
		fmt.Fprintf(sb, "\tmodel %s %s\n", m.Name(), verdict)
		printed++
	}
	if printed != len(t.AllowedUnder) {
		for name := range t.AllowedUnder {
			if _, err := memmodel.ByName(name); err != nil {
				return fmt.Errorf("expectation for unknown model %q: %w", name, err)
			}
		}
		return fmt.Errorf("expectation for a model with a non-canonical name")
	}
	return nil
}

// printOp renders one instruction in the grammar's canonical spelling.
func printOp(op machine.Op) (string, error) {
	switch o := op.(type) {
	case machine.LoadOp:
		if err := checkIdent(o.Dst, "load destination"); err != nil {
			return "", err
		}
		if err := checkIdent(o.Addr, "load location"); err != nil {
			return "", err
		}
		return fmt.Sprintf("%s = LD %s", o.Dst, o.Addr), nil
	case machine.StoreOp:
		if err := checkIdent(o.Addr, "store location"); err != nil {
			return "", err
		}
		src, err := printOperand(o.Src)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("ST %s = %s", o.Addr, src), nil
	case machine.AddOp:
		if err := checkIdent(o.Dst, "add destination"); err != nil {
			return "", err
		}
		a, err := printOperand(o.A)
		if err != nil {
			return "", err
		}
		b, err := printOperand(o.B)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("%s = %s + %s", o.Dst, a, b), nil
	case machine.FenceOp:
		switch o.Kind {
		case memmodel.FenceFull:
			return "FENCE", nil
		case memmodel.FenceAcquire:
			return "ACQ", nil
		case memmodel.FenceRelease:
			return "REL", nil
		default:
			return "", fmt.Errorf("fence kind %v has no text form", o.Kind)
		}
	case machine.RMWAddOp:
		if err := checkIdent(o.Dst, "RMW destination"); err != nil {
			return "", err
		}
		if err := checkIdent(o.Addr, "RMW location"); err != nil {
			return "", err
		}
		return fmt.Sprintf("%s = RMW %s += %d", o.Dst, o.Addr, o.Delta), nil
	default:
		return "", fmt.Errorf("op %T has no text form", op)
	}
}

// printOperand renders a register or immediate operand. The zero-value
// operand is Imm(0), matching machine.Operand's semantics.
func printOperand(o machine.Operand) (string, error) {
	s := o.String()
	if n, err := strconv.Atoi(s); err == nil {
		return strconv.Itoa(n), nil
	}
	if err := checkIdent(s, "operand register"); err != nil {
		return "", err
	}
	return s, nil
}

// checkIdent validates that a name is expressible as a grammar
// identifier (and is not a reserved instruction keyword).
func checkIdent(s, what string) error {
	if s == "" {
		return fmt.Errorf("empty %s", what)
	}
	if reserved[s] {
		return fmt.Errorf("%s %q is a reserved word", what, s)
	}
	for i, r := range s {
		if i == 0 && !isIdentStart(r) {
			return fmt.Errorf("%s %q is not an identifier", what, s)
		}
		if i > 0 && !isIdentPart(r) {
			return fmt.Errorf("%s %q is not an identifier", what, s)
		}
	}
	return nil
}

// checkRef validates a condition reference: an identifier, optionally
// with one ":"-separated register part.
func checkRef(ref string) error {
	parts := strings.SplitN(ref, ":", 2)
	if err := checkIdent(parts[0], "condition reference"); err != nil {
		return err
	}
	if len(parts) == 2 {
		if err := checkIdent(parts[1], "condition register"); err != nil {
			return err
		}
	}
	return nil
}
