// Package asm implements a textual assembler and disassembler for MIR. The
// syntax matches the String form of instructions (so Format/Parse round-trip)
// plus a few directives for setting up the data memory image:
//
//	; comment
//	.seg  name base size      ; map a zeroed segment
//	.word addr value          ; store a 64-bit integer
//	.byte addr value          ; store one byte
//	.fp   addr float          ; store a 64-bit float
//
//	entry:
//	    li   r1, 4096
//	    ld   r5, 0(r1)
//	    beq  r5, 0, done
//	    st   r5, 8(r1)
//	    jsr  putint, r5
//	done:
//	    halt
package asm

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"sentinel/internal/ir"
	"sentinel/internal/mem"
	"sentinel/internal/prog"
)

// Parse assembles source text into a program and its memory image.
func Parse(src string) (*prog.Program, *mem.Memory, error) {
	p := prog.NewProgram()
	m := mem.New()
	var cur *prog.Block
	for lineNo, raw := range strings.Split(src, "\n") {
		line := raw
		if i := strings.IndexByte(line, ';'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		fail := func(format string, args ...any) error {
			return fmt.Errorf("asm: line %d: %s", lineNo+1, fmt.Sprintf(format, args...))
		}
		switch {
		case strings.HasPrefix(line, "."):
			if err := directive(line, m); err != nil {
				return nil, nil, fail("%v", err)
			}
		case strings.HasSuffix(line, ":"):
			label := strings.TrimSuffix(line, ":")
			if label == "" {
				return nil, nil, fail("empty label")
			}
			cur = p.AddBlock(label)
		default:
			if cur == nil {
				return nil, nil, fail("instruction before any label")
			}
			in, err := ParseInstr(line)
			if err != nil {
				return nil, nil, fail("%v", err)
			}
			cur.Instrs = append(cur.Instrs, in)
		}
	}
	if err := p.Validate(); err != nil {
		return nil, nil, err
	}
	return p, m, nil
}

func directive(line string, m *mem.Memory) error {
	f := strings.Fields(line)
	switch f[0] {
	case ".seg":
		if len(f) != 4 {
			return fmt.Errorf(".seg wants: name base size")
		}
		base, err1 := parseInt(f[2])
		size, err2 := parseInt(f[3])
		if err1 != nil || err2 != nil {
			return fmt.Errorf(".seg: bad numbers %q %q", f[2], f[3])
		}
		m.Map(f[1], base, int(size))
		return nil
	case ".word", ".byte":
		if len(f) != 3 {
			return fmt.Errorf("%s wants: addr value", f[0])
		}
		addr, err1 := parseInt(f[1])
		val, err2 := parseInt(f[2])
		if err1 != nil || err2 != nil {
			return fmt.Errorf("%s: bad numbers", f[0])
		}
		size := 8
		if f[0] == ".byte" {
			size = 1
		}
		if fault := m.Write(addr, size, uint64(val)); fault != nil {
			return fmt.Errorf("%s: %v", f[0], fault)
		}
		return nil
	case ".fp":
		if len(f) != 3 {
			return fmt.Errorf(".fp wants: addr value")
		}
		addr, err1 := parseInt(f[1])
		val, err2 := strconv.ParseFloat(f[2], 64)
		if err1 != nil || err2 != nil {
			return fmt.Errorf(".fp: bad numbers")
		}
		if fault := m.Write(addr, 8, math.Float64bits(val)); fault != nil {
			return fmt.Errorf(".fp: %v", fault)
		}
		return nil
	default:
		return fmt.Errorf("unknown directive %s", f[0])
	}
}

var opByName = func() map[string]ir.Op {
	out := map[string]ir.Op{}
	for op := ir.Nop; ; op++ {
		name := op.String()
		if strings.HasPrefix(name, "op(") {
			break
		}
		out[name] = op
	}
	return out
}()

// ParseInstr parses one instruction in String() syntax.
func ParseInstr(line string) (*ir.Instr, error) {
	line = strings.TrimSuffix(strings.TrimSpace(line), " <spec>")
	name, rest, _ := strings.Cut(line, " ")
	op, ok := opByName[name]
	if !ok {
		return nil, fmt.Errorf("unknown opcode %q", name)
	}
	args := splitArgs(rest)
	in := ir.New(op)
	switch {
	case op == ir.Nop || op == ir.Halt:
		if len(args) != 0 {
			return nil, fmt.Errorf("%s takes no operands", name)
		}
	case op == ir.Li:
		if len(args) != 2 {
			return nil, fmt.Errorf("li wants: dest, imm")
		}
		var err error
		if in.Dest, err = parseReg(args[0]); err != nil {
			return nil, err
		}
		if in.Imm, err = parseInt(args[1]); err != nil {
			return nil, err
		}
	case op == ir.Mov || op == ir.Fmov || op == ir.Fneg || op == ir.Fabs ||
		op == ir.Cvif || op == ir.Cvfi || op == ir.ClearTag:
		if op == ir.ClearTag {
			if len(args) != 1 {
				return nil, fmt.Errorf("cleartag wants: reg")
			}
			var err error
			if in.Dest, err = parseReg(args[0]); err != nil {
				return nil, err
			}
			break
		}
		if len(args) != 2 {
			return nil, fmt.Errorf("%s wants: dest, src", name)
		}
		var err error
		if in.Dest, err = parseReg(args[0]); err != nil {
			return nil, err
		}
		if in.Src1, err = parseReg(args[1]); err != nil {
			return nil, err
		}
	case ir.IsLoad(op):
		if len(args) != 2 {
			return nil, fmt.Errorf("%s wants: dest, off(base)", name)
		}
		var err error
		if in.Dest, err = parseReg(args[0]); err != nil {
			return nil, err
		}
		if in.Imm, in.Src1, err = parseMemOperand(args[1]); err != nil {
			return nil, err
		}
	case ir.IsStore(op):
		if len(args) != 2 {
			return nil, fmt.Errorf("%s wants: val, off(base)", name)
		}
		var err error
		if in.Src2, err = parseReg(args[0]); err != nil {
			return nil, err
		}
		if in.Imm, in.Src1, err = parseMemOperand(args[1]); err != nil {
			return nil, err
		}
	case ir.IsBranch(op):
		if len(args) != 3 {
			return nil, fmt.Errorf("%s wants: src1, src2|imm, target", name)
		}
		var err error
		if in.Src1, err = parseReg(args[0]); err != nil {
			return nil, err
		}
		if r, err2 := parseReg(args[1]); err2 == nil {
			in.Src2 = r
		} else if in.Imm, err = parseInt(args[1]); err != nil {
			return nil, fmt.Errorf("bad second operand %q", args[1])
		}
		in.Target = args[2]
	case op == ir.Jmp:
		if len(args) != 1 {
			return nil, fmt.Errorf("jmp wants: target")
		}
		in.Target = args[0]
	case op == ir.Jsr:
		if len(args) != 2 {
			return nil, fmt.Errorf("jsr wants: routine, argreg")
		}
		in.Target = args[0]
		var err error
		if in.Src1, err = parseReg(args[1]); err != nil {
			return nil, err
		}
	case op == ir.Check:
		if len(args) != 1 {
			return nil, fmt.Errorf("check wants: reg")
		}
		var err error
		if in.Src1, err = parseReg(args[0]); err != nil {
			return nil, err
		}
	case op == ir.ConfirmSt:
		if len(args) != 1 {
			return nil, fmt.Errorf("confirm_st wants: index")
		}
		var err error
		if in.Imm, err = parseInt(args[0]); err != nil {
			return nil, err
		}
	default: // three-operand ALU: dest, src1, src2|imm
		if len(args) != 3 {
			return nil, fmt.Errorf("%s wants: dest, src1, src2|imm", name)
		}
		var err error
		if in.Dest, err = parseReg(args[0]); err != nil {
			return nil, err
		}
		if in.Src1, err = parseReg(args[1]); err != nil {
			return nil, err
		}
		if r, err2 := parseReg(args[2]); err2 == nil {
			in.Src2 = r
		} else if in.Imm, err = parseInt(args[2]); err != nil {
			return nil, fmt.Errorf("bad second operand %q", args[2])
		}
	}
	return in, nil
}

func splitArgs(s string) []string {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

func parseReg(s string) (ir.Reg, error) {
	if len(s) < 2 {
		return ir.NoReg, fmt.Errorf("bad register %q", s)
	}
	var mk func(int) ir.Reg
	var num string
	switch {
	case s[0] == 'r':
		mk, num = ir.R, s[1:]
	case s[0] == 'f':
		mk, num = ir.F, s[1:]
	case s[0] == 'v' && len(s) > 2 && s[1] == 'f':
		mk, num = ir.VF, s[2:]
	case s[0] == 'v':
		mk, num = ir.VR, s[1:]
	default:
		return ir.NoReg, fmt.Errorf("bad register %q", s)
	}
	n, err := strconv.Atoi(num)
	if err != nil || n < 0 || (s[0] != 'v' && n >= ir.NumIntRegs) {
		return ir.NoReg, fmt.Errorf("bad register %q", s)
	}
	return mk(n), nil
}

// parseMemOperand parses "off(base)".
func parseMemOperand(s string) (int64, ir.Reg, error) {
	open := strings.IndexByte(s, '(')
	if open < 0 || !strings.HasSuffix(s, ")") {
		return 0, ir.NoReg, fmt.Errorf("bad memory operand %q", s)
	}
	off, err := parseInt(s[:open])
	if err != nil {
		return 0, ir.NoReg, fmt.Errorf("bad offset in %q", s)
	}
	base, err := parseReg(s[open+1 : len(s)-1])
	if err != nil {
		return 0, ir.NoReg, err
	}
	return off, base, nil
}

func parseInt(s string) (int64, error) {
	return strconv.ParseInt(s, 0, 64)
}

// Format renders a program as parseable assembly.
func Format(p *prog.Program) string {
	return p.String()
}

// FormatScheduled renders a scheduled program with cycle/slot annotations
// (not parseable; for human inspection). A scheduled instruction's line is
// "  [%3d.%d] " then its text; an unscheduled one is indented to match.
func FormatScheduled(p *prog.Program) string {
	n := 0
	for _, b := range p.Blocks {
		n += len(b.Instrs)
	}
	// Presized for typical lines so one buffer holds the whole listing.
	buf := make([]byte, 0, 48*n+48*len(p.Blocks))
	for _, b := range p.Blocks {
		buf = append(buf, b.Label...)
		buf = append(buf, ':')
		if b.Superblock {
			buf = append(buf, "  ; superblock, weight "...)
			buf = strconv.AppendInt(buf, b.WeightHint, 10)
		}
		buf = append(buf, '\n')
		for _, in := range b.Instrs {
			if in.Cycle >= 0 {
				buf = append(buf, "  ["...)
				switch {
				case in.Cycle < 10:
					buf = append(buf, "  "...)
				case in.Cycle < 100:
					buf = append(buf, ' ')
				}
				buf = strconv.AppendInt(buf, int64(in.Cycle), 10)
				buf = append(buf, '.')
				buf = strconv.AppendInt(buf, int64(in.Slot), 10)
				buf = append(buf, "] "...)
			} else {
				buf = append(buf, "          "...)
			}
			buf = in.AppendText(buf)
			buf = append(buf, '\n')
		}
	}
	return string(buf)
}
