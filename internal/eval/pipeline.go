package eval

// The model-independent half of the compile, spelled out in this file
// only: lay the program out and validate it, run the reference interpreter
// on a clone of the input memory with the profile collected, form
// superblocks from that profile, and lay out and validate the formed
// program (PAPER.md §1). The model-dependent half — dependence-graph
// reduction and scheduling for one machine — is core.Schedule, or
// core.ScheduleOwned on a program the caller owns; every caller runs it
// itself on the program Front returns.

import (
	"errors"
	"fmt"

	"sentinel/internal/mem"
	"sentinel/internal/prog"
	"sentinel/internal/superblock"
)

// Stage names the step of Front that failed.
type Stage uint8

const (
	StageValidate  Stage = iota + 1 // the input program is malformed
	StageReference                  // the profiling reference run failed
	StageFormation                  // the formed program is malformed
)

func (s Stage) String() string {
	switch s {
	case StageValidate:
		return "validate"
	case StageReference:
		return "reference"
	case StageFormation:
		return "formation"
	}
	return fmt.Sprintf("Stage(%d)", uint8(s))
}

// StageError is a Front failure tagged with its stage. Its text is the
// failing step's own error: each caller words the stage its own way.
type StageError struct {
	Stage Stage
	Err   error
}

func (e *StageError) Error() string { return e.Err.Error() }
func (e *StageError) Unwrap() error { return e.Err }

// FrontOptions selects Front's optional stages.
type FrontOptions struct {
	// Form forms superblocks with SBO from the reference run's profile.
	Form bool
	SBO  superblock.Options
	// Reference takes the reference run without Form too, for a caller
	// that verifies against it.
	Reference bool
}

// Front runs the model-independent half of the compile on p, whose input
// memory m is cloned for the reference run and never written. It returns
// the program to schedule — formed when o.Form — with the reference result
// and its profile, nil when neither o.Form nor o.Reference asked for the
// run. Errors are *StageError. Front owns p: it lays p out in place and
// formation rewrites it (superblock.FormOwned), so a caller whose program
// anything else holds passes a clone.
func Front(p *prog.Program, m *mem.Memory, o FrontOptions) (*prog.Program, *prog.Result, error) {
	p.Layout()
	if err := p.Validate(); err != nil {
		return nil, nil, &StageError{StageValidate, err}
	}
	if !o.Form && !o.Reference {
		return p, nil, nil
	}
	ref, err := prog.Run(p, m.Clone(), prog.Options{Collect: true})
	if err != nil {
		return nil, nil, &StageError{StageReference, err}
	}
	if !o.Form {
		return p, ref, nil
	}
	f, err := form(p, ref.Profile, o.SBO)
	if err != nil {
		return nil, nil, err
	}
	return f, ref, nil
}

// form forms superblocks of the laid-out program p, which it owns, from a
// profile of its run, and validates the laid-out result. The Runner's
// forms cache calls it on a clone of its cached build, once per option set.
func form(p *prog.Program, prof *prog.Profile, sbo superblock.Options) (*prog.Program, error) {
	f := superblock.FormOwned(p, prof, sbo)
	if err := f.Validate(); err != nil {
		return nil, &StageError{StageFormation, err}
	}
	return f, nil
}

// frontError words a Front failure of benchmark name the way every eval
// path reports one: "name: err", with the stage between for a reference
// or formation failure.
func frontError(name string, err error) error {
	var se *StageError
	if errors.As(err, &se) && se.Stage != StageValidate {
		return fmt.Errorf("%s: %v: %w", name, se.Stage, err)
	}
	return fmt.Errorf("%s: %w", name, err)
}
