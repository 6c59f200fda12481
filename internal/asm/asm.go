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
	"unicode/utf8"

	"sentinel/internal/ir"
	"sentinel/internal/mem"
	"sentinel/internal/prog"
)

// Parse assembles source text into a program and its memory image.
func Parse(src string) (*prog.Program, *mem.Memory, error) {
	p := prog.NewProgram()
	m := mem.New()
	var cur *prog.Block
	for lineNo, rest, more := 0, src, true; more; lineNo++ {
		var line string
		line, rest, more = strings.Cut(rest, "\n")
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
	var fb [4]string
	f := appendFields(fb[:0], line)
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
		if fault := m.Write(addr, size, uint64(val)); fault.Failed() {
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
		if fault := m.Write(addr, 8, math.Float64bits(val)); fault.Failed() {
			return fmt.Errorf(".fp: %v", fault)
		}
		return nil
	default:
		return fmt.Errorf("unknown directive %s", f[0])
	}
}

// appendFields appends strings.Fields(s) to dst.
func appendFields(dst []string, s string) []string {
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			return append(dst, strings.Fields(s)...) // Unicode spaces
		}
	}
	for {
		s = strings.TrimLeft(s, asciiSpace)
		if s == "" {
			return dst
		}
		end := strings.IndexAny(s, asciiSpace)
		if end < 0 {
			return append(dst, s)
		}
		dst = append(dst, s[:end])
		s = s[end:]
	}
}

// asciiSpace is the ASCII white space strings.Fields splits on.
const asciiSpace = "\t\n\v\f\r "

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
	var argBuf [3]string
	args := splitArgs(argBuf[:0], rest)
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
		if r, ok := regName(args[1]); ok {
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
		if r, ok := regName(args[2]); ok {
			in.Src2 = r
		} else if in.Imm, err = parseInt(args[2]); err != nil {
			return nil, fmt.Errorf("bad second operand %q", args[2])
		}
	}
	return in, nil
}

// splitArgs appends the comma-separated, space-trimmed operands of s to
// dst (none when s is blank).
func splitArgs(dst []string, s string) []string {
	s = strings.TrimSpace(s)
	if s == "" {
		return dst
	}
	for {
		arg, rest, more := strings.Cut(s, ",")
		dst = append(dst, strings.TrimSpace(arg))
		if !more {
			return dst
		}
		s = rest
	}
}

// parseReg parses r0..r63 or f0..f63; any other name is a bad register.
func parseReg(s string) (ir.Reg, error) {
	if r, ok := regName(s); ok {
		return r, nil
	}
	return ir.NoReg, fmt.Errorf("bad register %q", s)
}

// regName is parseReg without the error, for an operand that may be a
// register or an immediate.
func regName(s string) (ir.Reg, bool) {
	if len(s) < 2 || s[0] != 'r' && s[0] != 'f' {
		return ir.NoReg, false
	}
	if n, err := strconv.Atoi(s[1:]); err == nil && n >= 0 {
		switch {
		case s[0] == 'r' && n < ir.NumIntRegs:
			return ir.R(n), true
		case s[0] == 'f' && n < ir.NumFPRegs:
			return ir.F(n), true
		}
	}
	return ir.NoReg, false
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
	return string(AppendScheduled(make([]byte, 0, 48*n+48*len(p.Blocks)), p))
}

// AppendScheduled appends FormatScheduled's listing of p to dst and returns
// the extended buffer.
func AppendScheduled(dst []byte, p *prog.Program) []byte {
	for _, b := range p.Blocks {
		dst = append(dst, b.Label...)
		dst = append(dst, ':')
		if b.Superblock {
			dst = append(dst, "  ; superblock, weight "...)
			dst = strconv.AppendInt(dst, b.WeightHint, 10)
		}
		dst = append(dst, '\n')
		for _, in := range b.Instrs {
			if in.Cycle >= 0 {
				dst = append(dst, "  ["...)
				switch {
				case in.Cycle < 10:
					dst = append(dst, "  "...)
				case in.Cycle < 100:
					dst = append(dst, ' ')
				}
				dst = strconv.AppendInt(dst, int64(in.Cycle), 10)
				dst = append(dst, '.')
				dst = strconv.AppendInt(dst, int64(in.Slot), 10)
				dst = append(dst, "] "...)
			} else {
				dst = append(dst, "          "...)
			}
			dst = in.AppendText(dst)
			dst = append(dst, '\n')
		}
	}
	return dst
}
