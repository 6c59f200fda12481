package server

// The source-program compile memo's key and value. Workload cells are
// cached and coalesced by the eval.Runner's flights; inline-source programs
// sit on the same eval.Flight (Server.sources), keyed by content hash so
// identical submissions — concurrent or repeated — are assembled, formed
// and scheduled exactly once per machine configuration.

import (
	"crypto/sha256"
	"sync"

	"sentinel/internal/core"
	"sentinel/internal/machine"
	"sentinel/internal/mem"
	"sentinel/internal/prog"
	"sentinel/internal/sim"
)

// sourceKey identifies one compiled source program: content hash × machine
// configuration × formation on/off.
type sourceKey struct {
	sum  [sha256.Size]byte
	md   machine.Desc
	form bool
}

// compiled is the read-only compile artifact of one source program; mem is
// the pristine input image, cloned per simulation.
type compiled struct {
	prog  *prog.Program
	stats core.Stats
	mem   *mem.Memory
	ref   *prog.Result

	// index is the simulator's program index, built on the first simulate:
	// a schedule request never needs it.
	indexOnce sync.Once
	index     *sim.ProgIndex
}

// progIndex returns the simulator index of c.prog, building it once.
func (c *compiled) progIndex() *sim.ProgIndex {
	c.indexOnce.Do(func() { c.index = sim.NewProgIndex(c.prog) })
	return c.index
}
