package sat

import "sync/atomic"

// Clause sharing between portfolio workers.
//
// Workers exchange small-LBD learnt clauses through a fixed-size ring of
// single-writer-per-publish slots guarded by per-slot sequence numbers
// (a seqlock). A publisher claims a slot by CAS-ing its sequence from
// even (stable) to odd (writing), stores the payload, and releases with
// seq+2; if the CAS loses — another publisher holds the slot, or a lap
// arrived first — the clause is simply dropped. Sharing is best-effort:
// a dropped or overwritten clause costs nothing but a missed pruning
// opportunity, because every shared clause is a resolvent of the common
// problem instance and therefore implied — importing any subset, in any
// order, preserves soundness.
//
// Consumers scan all slots at restart boundaries (decision level 0),
// skipping slots that are mid-write (odd seq), already seen (per-consumer
// ticket cursor), or torn (seq changed across the payload read). Every
// payload word — sequence, ticket, meta, and each literal — is an atomic,
// so the protocol is also race-detector-clean: the seqlock provides
// multi-word *consistency*, the atomics provide word-level visibility.

// maxSharedLits bounds the clauses worth exchanging; longer resolvents
// rarely prune other workers' searches and would bloat the slots.
const maxSharedLits = 8

// DefaultShareLBD is the largest LBD a portfolio worker exports.
const DefaultShareLBD = 4

// DefaultRingSlots is the ring capacity used by portfolio races.
const DefaultRingSlots = 256

type shareSlot struct {
	seq    atomic.Uint64 // even = stable, odd = being written
	ticket atomic.Uint64 // global publish number (1-based); 0 = never written
	meta   atomic.Uint64 // src<<32 | nLits
	lits   [maxSharedLits]atomic.Int32
}

// ClauseRing is the lock-free exchange between portfolio workers. One
// ring serves one race; attach solvers with SetShare.
type ClauseRing struct {
	slots     []shareSlot
	pos       atomic.Uint64 // ticket counter; slot index = ticket % len(slots)
	published atomic.Int64
}

// NewClauseRing returns a ring with the given number of slots (minimum 1).
func NewClauseRing(slots int) *ClauseRing {
	if slots < 1 {
		slots = 1
	}
	return &ClauseRing{slots: make([]shareSlot, slots)}
}

// Published returns how many clauses were successfully written.
func (r *ClauseRing) Published() int64 { return r.published.Load() }

// Publish offers a clause to the ring on behalf of worker src. It never
// blocks: contention for the slot drops the clause. Reports whether the
// clause was written.
func (r *ClauseRing) Publish(src int, lits []Lit) bool {
	n := len(lits)
	if n == 0 || n > maxSharedLits {
		return false
	}
	t := r.pos.Add(1) // 1-based so ticket 0 means "slot never written"
	slot := &r.slots[t%uint64(len(r.slots))]
	seq := slot.seq.Load()
	if seq&1 == 1 || !slot.seq.CompareAndSwap(seq, seq+1) {
		return false
	}
	slot.ticket.Store(t)
	slot.meta.Store(uint64(src)<<32 | uint64(n))
	for i, l := range lits {
		slot.lits[i].Store(int32(l))
	}
	slot.seq.Store(seq + 2)
	r.published.Add(1)
	return true
}

// SetShare attaches the solver to a ring as worker id, exporting learnt
// clauses with LBD ≤ maxLBD and importing others' clauses at restart
// boundaries when importing is true. Pass a nil ring to detach. Must be
// called at decision level 0 (between solves).
func (s *Solver) SetShare(ring *ClauseRing, id, maxLBD int, importing bool) {
	if s.decisionLevel() != 0 {
		panic("sat: SetShare called above decision level 0")
	}
	s.shareRing = ring
	s.shareID = int32(id)
	s.shareLBD = maxLBD
	s.shareIn = importing && ring != nil
	s.shareSeen = nil
	if s.shareIn {
		s.shareSeen = make([]uint64, len(ring.slots))
	}
}

// exportLearnt offers a freshly learnt clause to the attached ring.
// Called from search immediately after the clause is recorded.
func (s *Solver) exportLearnt(learnt []lit, lbd int) {
	if s.shareRing == nil || lbd > s.shareLBD || len(learnt) == 0 || len(learnt) > maxSharedLits {
		return
	}
	var buf [maxSharedLits]Lit
	for i, l := range learnt {
		buf[i] = toExternal(l)
	}
	if s.shareRing.Publish(int(s.shareID), buf[:len(learnt)]) {
		s.stats.Exported++
	}
}

// importShared drains unseen ring entries into the solver at decision
// level 0. Returns false if an imported clause exposed unsatisfiability
// (AddClause derived the empty clause); the solver is then in the okay ==
// false state and the caller must return Unsat. Entries that fail
// validation — empty, oversized, a zero literal, or a variable beyond
// this solver's range — are marked seen and skipped, so one malformed
// publish can never corrupt an importer.
func (s *Solver) importShared() bool {
	if s.shareRing == nil || !s.shareIn {
		return true
	}
	var buf [maxSharedLits]Lit
	for i := range s.shareRing.slots {
		slot := &s.shareRing.slots[i]
		seq := slot.seq.Load()
		if seq&1 == 1 {
			continue // mid-write; catch it next restart
		}
		t := slot.ticket.Load()
		if t == 0 || t <= s.shareSeen[i] {
			continue // never written, or already consumed
		}
		meta := slot.meta.Load()
		n := int(meta & 0xffffffff)
		src := int32(meta >> 32)
		valid := n >= 1 && n <= maxSharedLits
		if valid {
			for j := 0; j < n; j++ {
				l := Lit(slot.lits[j].Load())
				if l == 0 || l.Var() > s.nVars {
					valid = false
					break
				}
				buf[j] = l
			}
		}
		if slot.seq.Load() != seq {
			continue // torn read; don't mark seen, retry next restart
		}
		s.shareSeen[i] = t
		if !valid || src == s.shareID {
			continue
		}
		s.stats.Imported++
		if !s.AddClause(buf[:n]...) {
			return false
		}
	}
	return true
}
