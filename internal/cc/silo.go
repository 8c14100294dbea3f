package cc

import (
	"runtime"
	"sync/atomic"

	"next700/internal/storage"
	"next700/internal/txn"
)

// siloMeta is the per-record state: the TID word (bit 0 is the commit lock,
// upper 63 bits the TID of the last writer) and a pointer to the committed
// row image, immutable while published. Readers load the pointer between
// two word loads — the Go-memory-model-clean equivalent of Silo's seqlock
// read: because writers hold the lock bit across the data-pointer store,
// two equal unlocked word loads bracket an unchanged pointer.
//
// A nil data pointer means the record is absent (never inserted, or
// deleted).
type siloMeta struct {
	word atomic.Uint64
	data atomic.Pointer[[]byte]
}

const siloLockBit = uint64(1)

// siloSpinLimit bounds how long a reader spins on a locked TID word before
// aborting. Writers hold the lock only across the short install phase, so a
// small budget suffices; aborting under heavy contention is part of OCC's
// characteristic profile.
const siloSpinLimit = 256

// silo is Silo-style optimistic concurrency control (Tu et al., SOSP'13):
// invisible reads via TID-word versioning, write locks taken only at commit
// in canonical order, read-set validation, and epoch-based commit TIDs so
// the common case touches no shared counters at all.
//
// Committed row images live behind per-record atomic pointers rather than
// in the table arena, so reads are free of both latches and torn-read
// retries. An install publishes a fresh image and retires the old one to
// the committing slot's limbo; Silo's epochs say when no reader can still
// hold it, and a later install then reuses it instead of allocating.
type silo struct {
	env   *Env
	meta  tableMetas[siloMeta]
	slots []siloSlot // one per worker slot, checkpoint slot included
}

func newSilo(env *Env) *silo {
	p := &silo{env: env, slots: make([]siloSlot, env.NumThreads)}
	for i := range p.slots {
		p.slots[i].active.Store(siloIdle)
	}
	return p
}

// siloIdle is the announced epoch of a slot with no transaction running.
const siloIdle = ^uint64(0)

// siloLimboCap bounds each slot's limbo. It holds a few epochs' worth of
// retirements at the default 10 ms epoch; past it, retired images are left
// to the garbage collector (a reader pinning an old epoch, a stalled
// epoch ticker).
const siloLimboCap = 1 << 14

// siloRetired is a committed image taken out of its record, waiting until
// every transaction that could have read it has ended.
type siloRetired struct {
	img   *[]byte
	epoch uint64 // Epoch.Now() read after the image was unpublished
}

// siloSlot is a worker slot's reclamation state, padded to two cache lines
// so neighboring workers share none. active is the only field other slots
// read; the rest is touched by the slot's owner alone.
//
//next700:cachepad(128)
type siloSlot struct {
	// active is the epoch the slot's running transaction began in
	// (siloIdle between transactions). Unlike ActiveTable, an out-of-range
	// slot panics rather than going unannounced and letting its images be
	// recycled under it.
	active  atomic.Uint64
	lastTID uint64 // TID of the slot's previous commit
	// safe is the horizon at the slot's last scan: images retired in an
	// epoch below it are unreachable. It never exceeds the scanning
	// commit's own epoch, so no image retired after the scan is below it.
	safe        uint64
	limbo       []siloRetired // FIFO ring of siloLimboCap, made by the first fresh image
	head, count int
	_           [64]byte
}

// Name implements Protocol.
func (p *silo) Name() string { return "SILO" }

// Begin implements Protocol: record the epoch and announce it in the
// slot's own cache line; no shared counter is touched.
func (p *silo) Begin(tx *txn.Txn) {
	if tx.Priority == 0 {
		tx.Priority = p.env.TS.Next()
	}
	tx.Epoch = p.env.Epoch.Now()
	p.slots[tx.ThreadID].active.Store(tx.Epoch)
}

// horizon returns the smallest epoch any slot has announced. Called by a
// committing slot, so the result is at most its own epoch.
func (p *silo) horizon() uint64 {
	min := siloIdle
	for i := range p.slots {
		if e := p.slots[i].active.Load(); e < min {
			min = e
		}
	}
	return min
}

// image returns a private copy of data for publishing: the oldest limbo
// image if it was retired below the horizon and is large enough, else a
// fresh one.
func (s *siloSlot) image(data []byte) *[]byte {
	if s.count > 0 && s.limbo[s.head].epoch < s.safe {
		r := &s.limbo[s.head]
		img := r.img
		*r = siloRetired{}
		s.head = (s.head + 1) % siloLimboCap
		s.count--
		if cap(*img) >= len(data) {
			*img = (*img)[:len(data)]
			copy(*img, data)
			return img
		}
	}
	return s.fresh(data)
}

// fresh is the limbo miss: the limbo is empty, its oldest image may still
// be read, or that image is too small. The slot's first install also makes
// its limbo, so slots that never write carry none.
//
//next700:allowalloc(limbo miss: images retired in the current epoch may still be read; the alloc gate pins the steady state at 0)
func (s *siloSlot) fresh(data []byte) *[]byte {
	if s.limbo == nil {
		s.limbo = make([]siloRetired, siloLimboCap)
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	return &cp
}

// retire appends an unpublished image to the limbo, leaving it to the
// garbage collector when the limbo is full (or not yet made).
func (s *siloSlot) retire(img *[]byte, epoch uint64) {
	if s.count == len(s.limbo) {
		return
	}
	s.limbo[(s.head+s.count)%siloLimboCap] = siloRetired{img: img, epoch: epoch}
	s.count++
}

// LoadRecord implements Loader: seed the committed image.
func (p *silo) LoadRecord(tbl *storage.Table, rid storage.RecordID, key uint64, data []byte) {
	m := p.meta.get(tbl, rid)
	cp := make([]byte, len(data))
	copy(cp, data)
	m.data.Store(&cp)
}

// stableRead returns the committed row image and the TID word it belongs
// to. Aborts (ErrConflict) if the word stays locked past the spin budget;
// returns ErrNotFound (with a valid observation) for absent records.
func (p *silo) stableRead(m *siloMeta) ([]byte, uint64, error) {
	for spin := 0; ; spin++ {
		v1 := m.word.Load()
		if v1&siloLockBit != 0 {
			if spin >= siloSpinLimit {
				return nil, 0, txn.ErrConflict
			}
			runtime.Gosched()
			continue
		}
		ptr := m.data.Load()
		if m.word.Load() != v1 {
			continue
		}
		if ptr == nil {
			return nil, v1, txn.ErrNotFound
		}
		return *ptr, v1, nil
	}
}

// Read implements Protocol.
func (p *silo) Read(tx *txn.Txn, tbl *storage.Table, rid storage.RecordID) ([]byte, error) {
	m := p.meta.get(tbl, rid)
	buf, obs, err := p.stableRead(m)
	if err != nil && err != txn.ErrNotFound {
		return nil, err
	}
	// Record the observation even for absent records: committing against a
	// record that (re)appears must fail validation.
	tx.AddAccess(txn.Access{Table: tbl, RID: rid, Kind: txn.KindRead, Obs: obs})
	return buf, err
}

// ReadForUpdate implements Protocol: an invisible read that seeds the
// after-image; the record is locked only at commit.
func (p *silo) ReadForUpdate(tx *txn.Txn, tbl *storage.Table, rid storage.RecordID) ([]byte, error) {
	m := p.meta.get(tbl, rid)
	cur, obs, err := p.stableRead(m)
	if err != nil {
		return nil, err
	}
	buf := tx.Buf(len(cur))
	copy(buf, cur)
	tx.AddAccess(txn.Access{Table: tbl, RID: rid, Kind: txn.KindWrite, Data: buf, Obs: obs})
	return buf, nil
}

// ownInsertFlag marks accesses whose record lock was taken at insert time.
const ownInsertFlag = 1

// RegisterInsert implements Protocol: lock the fresh record's TID word so
// concurrent readers spin/abort until the outcome.
func (p *silo) RegisterInsert(tx *txn.Txn, tbl *storage.Table, rid storage.RecordID, key uint64, data []byte) error {
	m := p.meta.get(tbl, rid)
	if !m.word.CompareAndSwap(0, siloLockBit) {
		// Only possible if record slots were reused, which they are not.
		return txn.ErrConflict
	}
	tx.AddAccess(txn.Access{Table: tbl, RID: rid, Kind: txn.KindInsert, Key: key, Data: data, Obs2: ownInsertFlag})
	return nil
}

// RegisterDelete implements Protocol: a delete is a write whose install
// clears the data pointer.
func (p *silo) RegisterDelete(tx *txn.Txn, tbl *storage.Table, rid storage.RecordID, key uint64) error {
	m := p.meta.get(tbl, rid)
	_, obs, err := p.stableRead(m)
	if err != nil {
		return err
	}
	tx.AddAccess(txn.Access{Table: tbl, RID: rid, Kind: txn.KindDelete, Key: key, Obs: obs})
	return nil
}

// lockWord spin-locks a TID word, verifying the version did not move past
// the observation (early validation, cuts wasted installs).
func (p *silo) lockWord(m *siloMeta, obs uint64) bool {
	for spin := 0; ; spin++ {
		v := m.word.Load()
		if v&siloLockBit == 0 {
			if v != obs {
				return false
			}
			if m.word.CompareAndSwap(v, v|siloLockBit) {
				return true
			}
			continue
		}
		if spin >= siloSpinLimit {
			return false
		}
		runtime.Gosched()
	}
}

// Commit implements Protocol: Silo's three-phase commit. The slot's epoch
// announcement is withdrawn on every outcome.
func (p *silo) Commit(tx *txn.Txn) error {
	err := p.commit(tx)
	p.slots[tx.ThreadID].active.Store(siloIdle)
	return err
}

func (p *silo) commit(tx *txn.Txn) error {
	writes := sortWriteIndices(tx)

	// Phase 1: lock the write set in canonical order.
	locked := 0
	for _, wi := range writes {
		a := &tx.Accesses[wi]
		if a.Obs2 == ownInsertFlag {
			locked++ // locked since RegisterInsert
			continue
		}
		m := p.meta.get(a.Table, a.RID)
		if !p.lockWord(m, a.Obs) {
			p.unlockWrites(tx, writes, locked)
			return txn.ErrConflict
		}
		locked++
	}

	// Phase 2: validate the read set against current words.
	for i := range tx.Accesses {
		a := &tx.Accesses[i]
		if a.Kind != txn.KindRead {
			continue
		}
		m := p.meta.get(a.Table, a.RID)
		cur := m.word.Load()
		if cur&siloLockBit != 0 {
			// Locked by us (also in write set) is fine; anyone else fails.
			if tx.FindWrite(a.Table, a.RID) == nil {
				p.unlockWrites(tx, writes, locked)
				return txn.ErrConflict
			}
			cur &^= siloLockBit
		}
		if cur != a.Obs {
			p.unlockWrites(tx, writes, locked)
			return txn.ErrConflict
		}
	}

	if len(writes) == 0 {
		return nil // read-only: validated, done
	}

	// Phase 3: compute the commit TID and install. The data pointer is
	// swapped while the word still carries the lock bit; the final word
	// store releases.
	//
	// Readers hold the old image lock-free, so the new one must be owned by
	// no reader: never a view of the transaction's arena, and a recycled
	// image only once its retirement epoch is below every announced epoch.
	// The horizon is rescanned at most once per commit, when the oldest
	// limbo image is from a past epoch but the cached horizon does not
	// cover it. The old image is tagged with the epoch read after the swap:
	// any reader that loaded it announced that epoch or an earlier one
	// first, and this commit's own announcement keeps its retirements out
	// of its own later installs.
	tid := p.commitTID(tx)
	word := tid << 1
	s := &p.slots[tx.ThreadID]
	if s.count > 0 {
		if e := s.limbo[s.head].epoch; e >= s.safe && e < p.env.Epoch.Now() {
			s.safe = p.horizon()
		}
	}
	for _, wi := range writes {
		a := &tx.Accesses[wi]
		m := p.meta.get(a.Table, a.RID)
		var img *[]byte
		if a.Kind != txn.KindDelete {
			img = s.image(a.Data)
		}
		old := m.data.Swap(img)
		switch a.Kind {
		case txn.KindDelete:
			a.Table.SetTombstone(a.RID, true)
		case txn.KindInsert:
			a.Table.SetTombstone(a.RID, false)
		}
		m.word.Store(word) // install + unlock in one store
		if old != nil {
			s.retire(old, p.env.Epoch.Now())
		}
	}
	tx.ID = tid
	return nil
}

// commitTID returns a TID greater than every observed TID, greater than
// this thread's previous commit TID, and within the transaction's epoch.
func (p *silo) commitTID(tx *txn.Txn) uint64 {
	tid := uint64(0)
	for i := range tx.Accesses {
		if obs := tx.Accesses[i].Obs >> 1; obs > tid {
			tid = obs
		}
	}
	s := &p.slots[tx.ThreadID]
	if s.lastTID > tid {
		tid = s.lastTID
	}
	tid++
	if min := tx.Epoch << 32; tid < min {
		tid = min | 1
	}
	s.lastTID = tid
	return tid
}

// unlockWrites releases the first n locked write-set entries, restoring
// their observed words (or the cleared insert word).
func (p *silo) unlockWrites(tx *txn.Txn, writes []int, n int) {
	for k := 0; k < n; k++ {
		a := &tx.Accesses[writes[k]]
		m := p.meta.get(a.Table, a.RID)
		if a.Obs2 == ownInsertFlag {
			m.word.Store(0)
		} else {
			m.word.Store(a.Obs)
		}
	}
}

// Abort implements Protocol: only insert-time locks are held outside
// commit; the slot's epoch announcement is withdrawn.
func (p *silo) Abort(tx *txn.Txn) {
	for i := range tx.Accesses {
		a := &tx.Accesses[i]
		if a.Kind == txn.KindInsert && a.Obs2 == ownInsertFlag {
			m := p.meta.get(a.Table, a.RID)
			m.word.Store(0)
		}
	}
	p.slots[tx.ThreadID].active.Store(siloIdle)
}
