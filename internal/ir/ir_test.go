package ir

import (
	"testing"
)

func TestRegConstruction(t *testing.T) {
	if NoReg.Valid() {
		t.Error("NoReg must be invalid")
	}
	r := R(5)
	if !r.Valid() || r.Class != IntClass || r.N != 5 {
		t.Errorf("R(5) = %+v", r)
	}
	f := F(63)
	if !f.Valid() || f.Class != FPClass || f.N != 63 {
		t.Errorf("F(63) = %+v", f)
	}
	if !R(0).IsZero() {
		t.Error("r0 must be the hardwired zero register")
	}
	if R(1).IsZero() || F(0).IsZero() || NoReg.IsZero() {
		t.Error("only integer r0 is the zero register")
	}
}

func TestRegIndexDense(t *testing.T) {
	seen := map[int]bool{}
	for n := 0; n < NumIntRegs; n++ {
		i := R(n).Index()
		if i < 0 || i >= NumIntRegs+NumFPRegs || seen[i] {
			t.Fatalf("R(%d).Index() = %d (dup=%v)", n, i, seen[i])
		}
		seen[i] = true
	}
	for n := 0; n < NumFPRegs; n++ {
		i := F(n).Index()
		if i < 0 || i >= NumIntRegs+NumFPRegs || seen[i] {
			t.Fatalf("F(%d).Index() = %d (dup=%v)", n, i, seen[i])
		}
		seen[i] = true
	}
}

// TestRegConstructorsRange: R and F accept exactly their file's numbers,
// so every valid Reg indexes its file; Index refuses NoReg.
func TestRegConstructorsRange(t *testing.T) {
	panics := func(f func()) (p bool) {
		defer func() { p = recover() != nil }()
		f()
		return false
	}
	for _, c := range []struct {
		name string
		mk   func(int) Reg
		size int
	}{{"R", R, NumIntRegs}, {"F", F, NumFPRegs}} {
		for _, n := range []int{0, c.size - 1} {
			if r := c.mk(n); !r.Valid() || int(r.N) != n {
				t.Errorf("%s(%d) = %+v", c.name, n, r)
			}
		}
		for _, n := range []int{-1, c.size} {
			if !panics(func() { c.mk(n) }) {
				t.Errorf("%s(%d) did not panic", c.name, n)
			}
		}
	}
	if !panics(func() { NoReg.Index() }) {
		t.Error("NoReg.Index() did not panic")
	}
}

func TestRegString(t *testing.T) {
	cases := map[string]Reg{
		"r7": R(7), "f12": F(12), "-": NoReg,
	}
	for want, r := range cases {
		if got := r.String(); got != want {
			t.Errorf("%+v.String() = %q, want %q", r, got, want)
		}
	}
}

func TestTrapsMatchesPaperModel(t *testing.T) {
	// Per §5.1: "trap on exceptions for memory load, memory store, integer
	// divide, and all floating point instructions".
	trapping := []Op{Ld, Ldb, Fld, St, Stb, Fst, Div, Rem,
		Fadd, Fsub, Fmul, Fdiv, Fmov, Fneg, Fabs, Cvif, Cvfi, Feq, Flt, Fle}
	for _, op := range trapping {
		if !Traps(op) {
			t.Errorf("Traps(%v) = false, want true", op)
		}
	}
	nonTrapping := []Op{Nop, Add, Sub, Mul, And, Or, Xor, Shl, Shr, Slt, Li,
		Mov, Beq, Bne, Blt, Bge, Jmp, Jsr, Halt, Check, ConfirmSt, ClearTag}
	for _, op := range nonTrapping {
		if Traps(op) {
			t.Errorf("Traps(%v) = true, want false", op)
		}
	}
}

func TestOpClassPredicates(t *testing.T) {
	for _, op := range []Op{Beq, Bne, Blt, Bge} {
		if !IsBranch(op) || !IsControl(op) {
			t.Errorf("%v must be a conditional branch and control op", op)
		}
	}
	for _, op := range []Op{Jmp, Jsr, Halt} {
		if IsBranch(op) || !IsControl(op) {
			t.Errorf("%v must be control but not a conditional branch", op)
		}
	}
	for _, op := range []Op{St, Stb, Fst, SaveTR} {
		if !IsStore(op) || !IsMem(op) || IsLoad(op) {
			t.Errorf("%v store classification wrong", op)
		}
	}
	for _, op := range []Op{Ld, Ldb, Fld, RestTR} {
		if !IsLoad(op) || !IsMem(op) || IsStore(op) {
			t.Errorf("%v load classification wrong", op)
		}
	}
	if !Irreversible(Jsr) || Irreversible(St) || Irreversible(Ld) {
		t.Error("only Jsr is irreversible (weak-ordering memory model, §3.7)")
	}
}

func TestMemSize(t *testing.T) {
	for op, want := range map[Op]int{Ld: 8, Fld: 8, St: 8, Fst: 8, Ldb: 1,
		Stb: 1, SaveTR: 8, RestTR: 8, Add: 0, Beq: 0} {
		if got := MemSize(op); got != want {
			t.Errorf("MemSize(%v) = %d, want %d", op, got, want)
		}
	}
}

func TestUsesAndDef(t *testing.T) {
	i := ALU(Add, R(3), R(1), R(2))
	if d, ok := i.Def(); !ok || d != R(3) {
		t.Errorf("Def = %v,%v", d, ok)
	}
	u := i.Uses()
	if len(u) != 2 || u[0] != R(1) || u[1] != R(2) {
		t.Errorf("Uses = %v", u)
	}

	// r0 is hardwired zero: never a dependence.
	z := ALU(Add, R(0), R(0), R(2))
	if _, ok := z.Def(); ok {
		t.Error("write to r0 must not count as a definition")
	}
	if u := z.Uses(); len(u) != 1 || u[0] != R(2) {
		t.Errorf("Uses with r0 source = %v", u)
	}

	st := STORE(St, R(4), 8, R(5))
	if _, ok := st.Def(); ok {
		t.Error("store has no register definition")
	}
	if u := st.Uses(); len(u) != 2 {
		t.Errorf("store Uses = %v", u)
	}
}

func TestSelfModifying(t *testing.T) {
	if !ALU(Add, R(2), R(2), R(3)).SelfModifying() {
		t.Error("r2 = r2+r3 is self-modifying")
	}
	if !ALUI(Add, R(2), R(2), 1).SelfModifying() {
		t.Error("r2 = r2+1 is self-modifying")
	}
	if ALU(Add, R(4), R(2), R(3)).SelfModifying() {
		t.Error("r4 = r2+r3 is not self-modifying")
	}
	if !LOAD(Ld, R(1), R(1), 0).SelfModifying() {
		t.Error("r1 = mem(r1) is self-modifying")
	}
}

func TestNewDefaults(t *testing.T) {
	i := New(Add)
	if i.Cycle != -1 || i.Slot != -1 || i.PC != -1 || i.Spec {
		t.Errorf("New defaults wrong: %+v", i)
	}
}

func TestInstrString(t *testing.T) {
	cases := []struct {
		in   *Instr
		want string
	}{
		{ALU(Add, R(1), R(2), R(3)), "add r1, r2, r3"},
		{ALUI(Add, R(1), R(2), 4), "add r1, r2, 4"},
		{LI(R(5), 42), "li r5, 42"},
		{MOV(R(1), R(2)), "mov r1, r2"},
		{LOAD(Ld, R(1), R(2), 0), "ld r1, 0(r2)"},
		{STORE(St, R(2), 4, R(4)), "st r4, 4(r2)"},
		{BR(Beq, R(2), R(0), "L1"), "beq r2, r0, L1"},
		{BRI(Beq, R(2), 0, "L1"), "beq r2, 0, L1"},
		{JMP("L2"), "jmp L2"},
		{JSR("putint", R(4)), "jsr putint, r4"},
		{CHECK(R(5)), "check r5"},
		{CONFIRM(2), "confirm_st 2"},
		{CLEARTAG(R(6)), "cleartag r6"},
		{HALT(), "halt"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
	spec := LOAD(Ld, R(1), R(2), 0)
	spec.Spec = true
	if got := spec.String(); got != "ld r1, 0(r2) <spec>" {
		t.Errorf("speculative String() = %q", got)
	}
}

func TestUnitLatencyClasses(t *testing.T) {
	cases := map[Op]Unit{
		Add: UnitIntALU, Mul: UnitIntMul, Div: UnitIntDiv, Beq: UnitBranch,
		Ld: UnitLoad, St: UnitStore, Fadd: UnitFPALU, Cvif: UnitFPConv,
		Fmul: UnitFPMul, Fdiv: UnitFPDiv, Check: UnitIntALU,
		ConfirmSt: UnitStore,
	}
	for op, want := range cases {
		if got := UnitOf(op); got != want {
			t.Errorf("UnitOf(%v) = %v, want %v", op, got, want)
		}
	}
}

// Property: every opcode has a name, a unit class, and consistent
// store/load/mem classification.
func TestAllOpcodesWellFormed(t *testing.T) {
	for op := Nop; op < numOps; op++ {
		if op.String() == "" || op.String()[0] == 'o' && op != Or {
			t.Errorf("opcode %d has bad name %q", op, op.String())
		}
		if IsStore(op) && IsLoad(op) {
			t.Errorf("%v is both load and store", op)
		}
		if IsMem(op) != (IsStore(op) || IsLoad(op)) {
			t.Errorf("%v IsMem inconsistent", op)
		}
		if IsBranch(op) && !IsControl(op) {
			t.Errorf("%v branch must be control", op)
		}
	}
}
