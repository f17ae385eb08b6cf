package memory

import (
	"fmt"

	"repro/internal/params"
	"repro/internal/resilient"
)

// Pool is a fixed set of independent Memory shards behind one owner —
// the substrate of the coruscantd service front end. Each shard is a
// complete Memory (its own address space, striped per-DBC locks, its
// own telemetry recorder), so the shards share nothing and requests
// routed to distinct shards never contend on anything. The shards are
// where host parallelism lives: each runs on its own goroutine, while a
// Memory's bank-level parallelism is modelled in simulated time.
//
// Routing is the caller's concern: a Pool has no cross-shard address
// space and never moves rows between shards (that is ROADMAP's elastic
// state item, not this layer). The service routes by explicit shard id
// or tenant hash; see internal/service.
type Pool struct {
	shards []*Memory
}

// NewPool builds n independent shards of the given configuration.
func NewPool(cfg params.Config, n int) (*Pool, error) {
	if n <= 0 {
		return nil, fmt.Errorf("memory: pool needs at least 1 shard, got %d", n)
	}
	p := &Pool{shards: make([]*Memory, n)}
	for i := range p.shards {
		m, err := New(cfg)
		if err != nil {
			return nil, err
		}
		p.shards[i] = m
	}
	return p, nil
}

// Shards returns the number of shards.
func (p *Pool) Shards() int { return len(p.shards) }

// Shard returns shard i; callers use the full Memory API on it.
func (p *Pool) Shard(i int) *Memory {
	if i < 0 || i >= len(p.shards) {
		panic(fmt.Sprintf("memory: shard %d outside pool of %d", i, len(p.shards)))
	}
	return p.shards[i]
}

// Config returns the shards' (shared) configuration.
func (p *Pool) Config() params.Config { return p.shards[0].Config() }

// SetRecovery installs a recovery policy on every shard.
func (p *Pool) SetRecovery(pol resilient.Policy) error {
	for _, m := range p.shards {
		if err := m.SetRecovery(pol); err != nil {
			return err
		}
	}
	return nil
}
