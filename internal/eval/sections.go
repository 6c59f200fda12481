package eval

// The figure/table section renderer shared by `paperfigs` and the serving
// layer's /v1/figures endpoint. Both front-ends funnel through
// RenderSections with a shared Runner, so their bytes cannot drift: the CI
// serve job pins a served figure response byte-identical to the CLI's
// stdout.

import (
	"context"
	"fmt"
	"io"

	"sentinel/internal/machine"
	"sentinel/internal/superblock"
)

// Sections selects which tables/figures to emit, in the fixed output order
// of RenderSections.
type Sections struct {
	Fig4, Fig5, Table3, Overhead             bool
	Recovery, Buffer, Faults, Sharing, Boost bool
	Prediction                               bool
}

// AllSections selects every section, as `paperfigs -all` does.
func AllSections() Sections {
	return Sections{
		Fig4: true, Fig5: true, Table3: true, Overhead: true,
		Recovery: true, Buffer: true, Faults: true, Sharing: true, Boost: true,
		Prediction: true,
	}
}

// Any reports whether at least one section is selected.
func (s Sections) Any() bool {
	return s.Fig4 || s.Fig5 || s.Table3 || s.Overhead ||
		s.Recovery || s.Buffer || s.Faults || s.Sharing || s.Boost ||
		s.Prediction
}

// SectionByName sets the named section on s, reporting whether the name is
// known. Names match the paperfigs flags: fig4, fig5, table3, overhead,
// recovery, buffer, faults, sharing, boosting, prediction (and "all").
func (s *Sections) SectionByName(name string) bool {
	switch name {
	case "fig4":
		s.Fig4 = true
	case "fig5":
		s.Fig5 = true
	case "table3":
		s.Table3 = true
	case "overhead":
		s.Overhead = true
	case "recovery":
		s.Recovery = true
	case "buffer":
		s.Buffer = true
	case "faults":
		s.Faults = true
	case "sharing":
		s.Sharing = true
	case "boosting", "boost":
		s.Boost = true
	case "prediction":
		s.Prediction = true
	case "all":
		*s = AllSections()
	default:
		return false
	}
	return true
}

// SectionsByName resolves a list of section names, as a /v1/figures query
// carries them, through SectionByName; no names select every section. ok is
// false at the first unknown name, which it returns.
func SectionsByName(names []string) (s Sections, unknown string, ok bool) {
	if len(names) == 0 {
		return AllSections(), "", true
	}
	for _, name := range names {
		if !s.SectionByName(name) {
			return s, name, false
		}
	}
	return s, "", true
}

// RenderSections renders the selected sections to w using r for every
// measurement. The headline figures share one RunAll matrix; extension
// sections run through the same Runner, so artifacts are reused across
// sections. Cancellation stops the figure matrix between cells; an expired
// context returns its error with nothing further written.
func RenderSections(ctx context.Context, s Sections, r *Runner, w io.Writer) error {
	if s.Table3 {
		fmt.Fprintln(w, Table3())
	}

	var results []*BenchResult
	if s.Fig4 || s.Fig5 || s.Overhead {
		var err error
		results, err = r.RunAllCtx(ctx,
			[]machine.Model{machine.Restricted, machine.General,
				machine.Sentinel, machine.SentinelStores},
			Widths, superblock.Options{})
		if err != nil {
			return err
		}
	}
	if s.Fig4 {
		fmt.Fprintln(w, Figure4(results))
	}
	if s.Fig5 {
		fmt.Fprintln(w, Figure5(results))
	}
	if s.Overhead {
		fmt.Fprintln(w, SentinelOverheadTable(results, 8))
	}

	for _, sec := range []struct {
		on     bool
		render func() (string, error)
	}{
		{s.Recovery, r.RecoveryCost},
		{s.Buffer, r.StoreBufferSweep},
		{s.Faults, r.FaultInjection},
		{s.Sharing, r.SharingAblation},
		{s.Boost, r.BoostingComparison},
		{s.Prediction, r.PredictionStudy},
	} {
		if !sec.on {
			continue
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		out, err := sec.render()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, out)
	}
	return nil
}
