package asm

import (
	"strings"
	"testing"

	"sentinel/internal/ir"
	"sentinel/internal/prog"
)

const sample = `
; sum an array of 3 words
.seg data 0x1000 32
.word 0x1000 5
.word 0x1008 7
.word 0x1010 11

entry:
	li r1, 0x1000
	li r2, 3
	li r3, 0
	li r4, 0
loop:
	bge r4, r2, done
	ld r5, 0(r1)
	add r3, r3, r5
	add r1, r1, 8
	add r4, r4, 1
	jmp loop
done:
	jsr putint, r3
	halt
`

func TestParseAndRun(t *testing.T) {
	p, m, err := Parse(sample)
	if err != nil {
		t.Fatal(err)
	}
	p.Layout()
	res, err := prog.Run(p, m, prog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Out) != 1 || res.Out[0] != 23 {
		t.Fatalf("out = %v, want [23]", res.Out)
	}
}

func TestRoundTrip(t *testing.T) {
	p, _, err := Parse(sample)
	if err != nil {
		t.Fatal(err)
	}
	text := Format(p)
	p2, _, err := Parse(text)
	if err != nil {
		t.Fatalf("re-parse: %v\n%s", err, text)
	}
	if Format(p2) != text {
		t.Errorf("round trip not stable:\n%s\nvs\n%s", text, Format(p2))
	}
}

func TestParseInstrForms(t *testing.T) {
	cases := []string{
		"nop",
		"add r1, r2, r3",
		"add r1, r2, -4",
		"mul r5, r6, 9",
		"li r5, 4096",
		"mov r1, r2",
		"fmov f1, f2",
		"fadd f3, f1, f2",
		"cvif f1, r2",
		"cvfi r2, f1",
		"ld r1, 8(r2)",
		"ldb r1, 0(r2)",
		"fld f1, -8(r2)",
		"st r4, 16(r2)",
		"stb r4, 0(r2)",
		"fst f4, 0(r2)",
		"beq r1, r2, foo",
		"bne r1, 0, foo",
		"blt r1, -5, foo",
		"jmp foo",
		"jsr putint, r3",
		"check r5",
		"confirm_st 2",
		"cleartag r6",
		"halt",
	}
	for _, c := range cases {
		in, err := ParseInstr(c)
		if err != nil {
			t.Errorf("ParseInstr(%q): %v", c, err)
			continue
		}
		if got := in.String(); got != c {
			t.Errorf("round trip %q -> %q", c, got)
		}
	}
}

func TestParseSpecSuffixTolerated(t *testing.T) {
	in, err := ParseInstr("ld r1, 0(r2) <spec>")
	if err != nil || in.Op != ir.Ld {
		t.Fatalf("spec-suffixed parse failed: %v", err)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"frobnicate r1",
		"add r1, r2",
		"ld r1, r2",
		"ld r1, 0(z9)",
		"beq r1, r2",
		"li r99, 5",
		"jsr putint",
	}
	for _, c := range bad {
		if _, err := ParseInstr(c); err == nil {
			t.Errorf("ParseInstr(%q) accepted", c)
		}
	}
	for _, src := range []string{
		"add r1, r2, r3\n", // instruction before label
		"main:\n\tjmp nowhere\n",
		".seg x\nmain:\n\thalt\n",
		".word 0x1000 1\nmain:\n\thalt\n", // write outside any segment
	} {
		if _, _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) accepted", src)
		}
	}
}

func TestDirectives(t *testing.T) {
	src := `
.seg d 0x100 32
.word 0x100 0x2a
.byte 0x108 7
.fp 0x110 1.5
main:
	halt
`
	_, m, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := m.Read(0x100, 8); v != 0x2a {
		t.Errorf("word = %#x", v)
	}
	if v, _ := m.Read(0x108, 1); v != 7 {
		t.Errorf("byte = %d", v)
	}
	if v, _ := m.Read(0x110, 8); v != 0x3FF8000000000000 {
		t.Errorf("fp bits = %#x", v)
	}
}

func TestFormatScheduled(t *testing.T) {
	p, _, err := Parse(sample)
	if err != nil {
		t.Fatal(err)
	}
	p.Blocks[0].Instrs[0].Cycle = 0
	p.Blocks[0].Instrs[0].Slot = 1
	s := FormatScheduled(p)
	if !strings.Contains(s, "[  0.1]") {
		t.Errorf("missing cycle annotation:\n%s", s)
	}
}

// TestVirtualRegisterSyntax: only r0..r63 and f0..f63 name registers, each
// class bounded by its own file. The old virtual names (v1, vf2) and
// out-of-range numbers are each a bad-register error.
func TestVirtualRegisterSyntax(t *testing.T) {
	for _, reg := range []string{"v1", "vf2", "r64", "f64", "r-1"} {
		_, err := ParseInstr("mov " + reg + ", r1")
		if err == nil || !strings.Contains(err.Error(), "bad register") {
			t.Errorf("mov %s, r1: err = %v, want a bad-register error", reg, err)
		}
	}
	for _, c := range []struct {
		text string
		want ir.Reg
	}{{"mov r63, r1", ir.R(63)}, {"fmov f63, f1", ir.F(63)}, {"mov r0, r1", ir.R(0)}} {
		in, err := ParseInstr(c.text)
		if err != nil {
			t.Errorf("%s: %v", c.text, err)
		} else if in.Dest != c.want {
			t.Errorf("%s: dest %v, want %v", c.text, in.Dest, c.want)
		}
	}
}
