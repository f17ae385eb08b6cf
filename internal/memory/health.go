package memory

import (
	"errors"
	"fmt"

	"repro/internal/isa"
	"repro/internal/resilient"
	"repro/internal/telemetry"
)

// ErrQuarantined reports an access to a DBC the health ledger has taken
// out of service: either a cluster that exceeded its detected-fault
// threshold and could not be remapped (no spare left in its bank), or
// the physical spare now backing a remapped cluster (the spare's own
// address leaves the address space when it is reserved). Test with
// errors.Is.
var ErrQuarantined = errors.New("memory: DBC quarantined")

// QuarantineRecord describes one remapped (or failed) cluster.
type QuarantineRecord struct {
	Logical  isa.Addr // the quarantined DBC's address (row 0)
	Spare    isa.Addr // physical spare now backing it; zero Addr if none was left
	Faults   int      // detected faults that triggered the quarantine
	Remapped bool     // false = no spare available, accesses fail
}

// HealthReport is a point-in-time snapshot of the health ledger.
type HealthReport struct {
	// Faults maps DBC base addresses to their detected-fault counts
	// (counts reset when a cluster is remapped to a spare).
	Faults map[isa.Addr]int
	// Quarantined lists every quarantine decision, in the order taken.
	Quarantined []QuarantineRecord
	// TotalDetected is the lifetime detected-fault count across all
	// clusters; unlike Faults it survives quarantine resets.
	TotalDetected int
}

// SparesUsed counts successfully remapped clusters.
func (h HealthReport) SparesUsed() int {
	n := 0
	for _, q := range h.Quarantined {
		if q.Remapped {
			n++
		}
	}
	return n
}

// healthLedger tracks per-DBC detected faults and quarantine state,
// under the memory's lock. Execution paths only append observations
// (noteFaults); the remapping work runs in processQuarantines at the end
// of the request or batch.
type healthLedger struct {
	faults   map[isa.Addr]int      // detected faults per DBC base
	remap    map[isa.Addr]isa.Addr // quarantined logical base → spare base
	reserved map[isa.Addr]bool     // spare bases taken out of the address space
	failed   map[isa.Addr]bool     // quarantined with no spare: accesses error
	pending  []isa.Addr            // crossed threshold, awaiting remap
	history  []QuarantineRecord
	detected int // lifetime detected-fault total (never reset)
}

func (h *healthLedger) init() {
	h.faults = make(map[isa.Addr]int)
	h.remap = make(map[isa.Addr]isa.Addr)
	h.reserved = make(map[isa.Addr]bool)
	h.failed = make(map[isa.Addr]bool)
}

// noteFaults credits n detected faults to the DBC and schedules a
// quarantine once the threshold is crossed. threshold ≤ 0 disables
// quarantining (faults are still counted for Health()). m.mu held.
func (m *Memory) noteFaults(base isa.Addr, n, threshold int) {
	h := &m.health
	h.faults[base] += n
	h.detected += n
	if threshold <= 0 || h.faults[base] < threshold {
		return
	}
	if _, ok := h.remap[base]; ok {
		return // already remapped once; spares are not chained
	}
	if h.failed[base] {
		return
	}
	for _, p := range h.pending {
		if p == base {
			return
		}
	}
	h.pending = append(h.pending, base)
}

// checkQuarantine rejects addresses the ledger has taken out of
// service. m.mu held.
func (m *Memory) checkQuarantine(base isa.Addr) error {
	h := &m.health
	if h.reserved[base] {
		return fmt.Errorf("memory: %+v is a reserved spare: %w", base, ErrQuarantined)
	}
	if h.failed[base] {
		return fmt.Errorf("memory: %+v exceeded its fault threshold with no spare available: %w", base, ErrQuarantined)
	}
	return nil
}

// processQuarantines remaps every cluster scheduled by noteFaults. run
// and runBatch call it once the request or batch has run. m.mu held.
func (m *Memory) processQuarantines() {
	h := &m.health
	for _, base := range h.pending {
		m.quarantine(base)
	}
	h.pending = h.pending[:0]
}

// quarantine takes one cluster out of service: it reserves a spare DBC
// in the same bank, migrates the victim's rows onto it, and swaps the
// spare in behind the victim's logical address — reads, writes and
// executions keep their addresses; only the backing physical cluster
// changes. With no spare left the logical address itself is failed and
// subsequent accesses return ErrQuarantined. m.mu held.
func (m *Memory) quarantine(base isa.Addr) {
	h := &m.health
	rec := m.rec.Load()
	faults := h.faults[base]
	spare, ok := m.findSpare(base)
	if !ok {
		h.failed[base] = true
		h.history = append(h.history, QuarantineRecord{Logical: base, Faults: faults})
		rec.Mark(resilient.Source, "quarantine-failed:"+string(srcFor(base)), faults)
		return
	}
	h.reserved[spare] = true
	h.remap[base] = spare
	h.faults[base] = 0 // the new physical cluster starts healthy
	h.history = append(h.history, QuarantineRecord{Logical: base, Spare: spare, Faults: faults, Remapped: true})

	if err := m.remapShard(base, spare); err != nil {
		// Materialization of the replacement can only fail on geometry
		// errors, which checkAddr has already excluded; record defensively.
		rec.Mark(resilient.Source, "quarantine-error:"+string(srcFor(base)), faults)
		return
	}
	rec.Mark(resilient.Source, "quarantine:"+string(srcFor(base)), faults)
}

// findSpare picks an unused DBC base in the victim's bank with the same
// PIM capability, scanning subarray-major. m.mu held.
func (m *Memory) findSpare(victim isa.Addr) (isa.Addr, bool) {
	g := m.cfg.Geometry
	h := &m.health
	wantPIM := victim.IsPIMEnabled(g)
	for s := 0; s < g.SubarraysPerBank; s++ {
		for t := 0; t < g.TilesPerSubarray; t++ {
			for d := 0; d < g.DBCsPerTile; d++ {
				cand := isa.Addr{Bank: victim.Bank, Subarray: s, Tile: t, DBC: d}
				if cand == victim || cand.IsPIMEnabled(g) != wantPIM {
					continue
				}
				if _, materialized := m.shards[cand]; materialized {
					continue
				}
				if h.reserved[cand] || h.failed[cand] {
					continue
				}
				if _, quarantined := h.remap[cand]; quarantined {
					continue
				}
				return cand, true
			}
		}
	}
	return isa.Addr{}, false
}

// remapShard replaces the victim shard's physical cluster with a fresh
// one (the spare), migrating all rows. The shard object — and with it
// the telemetry source — survives. m.mu held.
func (m *Memory) remapShard(base, spare isa.Addr) error {
	sh := m.shards[base]
	if sh == nil {
		return fmt.Errorf("memory: quarantined DBC %+v never materialized", base)
	}
	c, err := m.newCluster(base, spare)
	if err != nil {
		return err
	}
	// Migrate the victim's contents row by row. The copies ride the row
	// buffer like any other intra-bank movement, so they are priced as
	// row copies on the telemetry stream.
	rec := c.d.Recorder()
	for r := 0; r < m.cfg.Geometry.RowsPerDBC; r++ {
		c.d.LoadRow(r, sh.d.PeekRow(r))
		rec.Move(srcFor(base), telemetry.OpRowCopy, c.d.Width())
	}
	sh.cluster = c
	return nil
}

// Health returns a snapshot of the health ledger: per-DBC detected
// fault counts and every quarantine decision taken so far.
func (m *Memory) Health() HealthReport {
	m.mu.Lock()
	defer m.mu.Unlock()
	h := &m.health
	rep := HealthReport{Faults: make(map[isa.Addr]int, len(h.faults)), TotalDetected: h.detected}
	for b, n := range h.faults {
		if n > 0 {
			rep.Faults[b] = n
		}
	}
	rep.Quarantined = append(rep.Quarantined, h.history...)
	return rep
}
