// Package mem exercises the lockorder analyzer with a self-contained
// replica of the striped-locking memory: per-DBC shard mutexes, the
// coarse cfg-class mutexes, and the ordered multi-lock helper pair.
package mem

import "sync"

type shard struct {
	mu   sync.Mutex
	rows []int
}

type Memory struct {
	tableMu sync.RWMutex
	shards  map[int]*shard
	scratch []*shard

	cfgMu sync.Mutex
	rec   int
}

// lockInto is the one sanctioned multi-shard acquisition path: the
// caller's bases arrive deduplicated and sorted, so the pairwise
// acquisition order is global. The shards are appended to dst; on error
// nothing is locked.
func (m *Memory) lockInto(dst []*shard, bases []int) ([]*shard, error) {
	m.tableMu.RLock()
	for _, b := range bases {
		sh := m.shards[b]
		if sh == nil {
			m.tableMu.RUnlock()
			return dst[:0], errNoShard
		}
		dst = append(dst, sh)
	}
	m.tableMu.RUnlock()
	for _, sh := range dst {
		//coruscantvet:ignore lockorder -- the ordered helper itself: bases are sorted, the order is global
		sh.mu.Lock()
	}
	return dst, nil
}

// unlockShards releases a lockInto set in reverse acquisition order.
func unlockShards(shards []*shard) {
	for i := len(shards) - 1; i >= 0; i-- {
		shards[i].mu.Unlock()
	}
}

type lockErr string

func (e lockErr) Error() string { return string(e) }

const errNoShard = lockErr("no such shard")

// Recorder locks a cfg-class mutex; calling it under a shard lock
// inverts the cfg-before-shard order.
func (m *Memory) Recorder() int {
	m.cfgMu.Lock()
	defer m.cfgMu.Unlock()
	return m.rec
}

// reportHealth reaches Recorder transitively, so it inherits the
// cfg-locking summary.
func (m *Memory) reportHealth() int { return m.Recorder() }

func (m *Memory) directPair(a, b *shard) {
	a.mu.Lock()
	b.mu.Lock() // want `second shard lock acquired directly`
	b.mu.Unlock()
	a.mu.Unlock()
}

func (m *Memory) sequentialPairOK(a, b *shard) {
	a.mu.Lock()
	a.mu.Unlock()
	b.mu.Lock()
	b.mu.Unlock()
}

func (m *Memory) deferredHold(a, b *shard) {
	a.mu.Lock()
	defer a.mu.Unlock() // runs at exit: the lock is held below
	b.mu.Lock()         // want `second shard lock acquired directly`
	b.mu.Unlock()
}

func (m *Memory) cfgUnderShard(a *shard) {
	a.mu.Lock()
	m.cfgMu.Lock() // want `cfg-class mutex cfgMu acquired while a shard lock is held`
	m.cfgMu.Unlock()
	a.mu.Unlock()
}

func (m *Memory) tableUnderOrdered(bases []int) {
	shards, _ := m.lockInto(nil, bases)
	defer unlockShards(shards)
	m.tableMu.RLock() // want `cfg-class mutex tableMu acquired while a shard lock is held`
	m.tableMu.RUnlock()
}

func (m *Memory) callLocksCfgUnderShard(a *shard) {
	a.mu.Lock()
	_ = m.Recorder() // want `Recorder acquires a cfg-class mutex`
	a.mu.Unlock()
}

func (m *Memory) transitiveCallUnderOrdered(bases []int) {
	shards, _ := m.lockInto(nil, bases)
	_ = m.reportHealth() // want `reportHealth acquires a cfg-class mutex`
	unlockShards(shards)
}

func (m *Memory) hoistedRecorderOK(a *shard) {
	rec := m.Recorder() // cfg before shard: the sanctioned order
	a.mu.Lock()
	_ = rec
	a.mu.Unlock()
}

func (m *Memory) unlockedBetweenOK(bases []int, a *shard) {
	shards, _ := m.lockInto(nil, bases)
	unlockShards(shards) // set released: the call below is clean
	_ = m.Recorder()
}

func (m *Memory) orderedThenDirect(bases []int, a *shard) {
	shards, _ := m.lockInto(nil, bases)
	defer unlockShards(shards)
	a.mu.Lock() // want `second shard lock acquired directly`
	a.mu.Unlock()
}

func (m *Memory) orderedTwice(a, b []int) {
	shards, _ := m.lockInto(nil, a)
	more, _ := m.lockInto(nil, b) // want `lockInto called while a shard lock is already held`
	unlockShards(more)
	unlockShards(shards)
}

func (m *Memory) cfgThenShardOK() {
	m.cfgMu.Lock()
	var sh shard
	sh.mu.Lock()
	sh.mu.Unlock()
	m.cfgMu.Unlock()
}

func (m *Memory) loopRelockOK(shards []*shard) {
	for _, sh := range shards {
		sh.mu.Lock()
		sh.rows = nil
		sh.mu.Unlock()
	}
}

// errCheckedLoopOK: the error branch of lockInto holds nothing, so
// continuing the loop (and calling a cfg-locking function after it) is
// clean on every path.
func (m *Memory) errCheckedLoopOK(basesList [][]int) {
	for _, bases := range basesList {
		shards, err := m.lockInto(nil, bases)
		if err != nil {
			continue
		}
		unlockShards(shards)
	}
	_ = m.Recorder()
}

func (m *Memory) errCheckedEqlOK(bases []int) {
	shards, err := m.lockInto(nil, bases)
	if err == nil {
		unlockShards(shards)
	}
	_ = m.Recorder()
}

// errCheckedStillHeld: the non-error branch does hold the set, so a
// cfg-locking call before unlockShards is still flagged.
func (m *Memory) errCheckedStillHeld(bases []int) {
	shards, err := m.lockInto(nil, bases)
	if err != nil {
		return
	}
	_ = m.Recorder() // want `Recorder acquires a cfg-class mutex`
	unlockShards(shards)
}

// runBatch mirrors the batch engine's group loop: one lock set per
// group, taken on a reused buffer, with a statement between lockInto and
// its error check. The cfg-locking call under the set is flagged; the
// same call on the error branch's continue, or after unlockShards, is
// clean.
func (m *Memory) runBatch(groups [][]int) {
	for _, bases := range groups {
		shards, err := m.lockInto(m.scratch[:0], bases)
		m.scratch = shards[:0]
		if err != nil {
			_ = m.Recorder()
			continue
		}
		for range bases {
			_ = m.Recorder() // want `Recorder acquires a cfg-class mutex`
		}
		unlockShards(shards)
		_ = m.Recorder()
	}
	_ = m.Recorder()
}

// run mirrors the single-request runner: the set is released by a
// deferred unlockShards, so it is held for the rest of the function and
// a cfg-locking call there is flagged. A deferred cfg-locking call
// registered earlier runs after the release, and the error branch holds
// nothing.
func (m *Memory) run(bases []int) int {
	defer m.reportHealth()
	shards, err := m.lockInto(m.scratch[:0], bases)
	if err != nil {
		return m.Recorder()
	}
	defer unlockShards(shards)
	return m.Recorder() // want `Recorder acquires a cfg-class mutex`
}
