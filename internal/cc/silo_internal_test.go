package cc

import (
	"sync"
	"testing"

	"next700/internal/storage"
	"next700/internal/txn"
)

// siloFixture is a SILO instance over one table of n loaded records.
type siloFixture struct {
	env  *Env
	p    *silo
	sch  *storage.Schema
	tbl  *storage.Table
	rids []storage.RecordID
}

func newSiloFixture(threads, n int) *siloFixture {
	f := &siloFixture{env: NewEnv(threads)}
	f.p = newSilo(f.env)
	f.sch = storage.MustSchema("t", storage.I64("v"))
	f.tbl = storage.NewTable(f.sch, 0)
	init := make([]byte, f.sch.RowSize())
	for i := 0; i < n; i++ {
		rid := f.tbl.Alloc()
		f.p.LoadRecord(f.tbl, rid, uint64(i), init)
		f.rids = append(f.rids, rid)
	}
	return f
}

// image returns the record's published image pointer.
func (f *siloFixture) image(rid storage.RecordID) *[]byte {
	return f.p.meta.get(f.tbl, rid).data.Load()
}

// update commits one transaction on thread that sets every listed record
// to v.
func (f *siloFixture) update(t *testing.T, thread int, v int64, rids ...storage.RecordID) {
	t.Helper()
	tx := mkTxn(thread, 0)
	tx.Reset()
	f.p.Begin(tx)
	for _, rid := range rids {
		buf, err := f.p.ReadForUpdate(tx, f.tbl, rid)
		if err != nil {
			t.Fatal(err)
		}
		f.sch.SetInt64(buf, 0, v)
	}
	if err := f.p.Commit(tx); err != nil {
		t.Fatal(err)
	}
}

// TestSiloRetiredImageNotReusedBySameCommit: an image a commit unpublishes
// may still be held by readers that loaded it before the swap, so the same
// commit must never republish it, whatever the epoch does meanwhile. A
// retired image from an earlier, finished epoch is reused.
func TestSiloRetiredImageNotReusedBySameCommit(t *testing.T) {
	f := newSiloFixture(1, 4)
	a, b := f.rids[0], f.rids[1]

	a0 := f.image(a)
	f.update(t, 0, 1, a) // retires a0
	f.env.Epoch.Advance()
	a1 := f.image(a)
	f.update(t, 0, 2, a, b) // a reuses a0; b must not get a1
	if got := f.image(a); got != a0 {
		t.Fatalf("a's image from a finished epoch was not reused")
	}
	if got := f.image(b); got == a1 {
		t.Fatalf("commit republished the image it had just retired")
	}

	// The same under an epoch that moves during commits.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				f.env.Epoch.Advance()
			}
		}
	}()
	defer func() {
		close(stop)
		wg.Wait()
	}()
	retired := make(map[*[]byte]bool, len(f.rids))
	for i := 0; i < 2000; i++ {
		clear(retired)
		for _, rid := range f.rids {
			retired[f.image(rid)] = true
		}
		f.update(t, 0, int64(i), f.rids...)
		for _, rid := range f.rids {
			if retired[f.image(rid)] {
				t.Fatalf("commit %d republished an image it retired", i)
			}
		}
	}
}

// TestSiloPinnedReaderHoldsLimbo: a reader that stays open pins its epoch,
// so no image retired since can be reused. The writer falls back to fresh
// images, the limbo stops at its cap, and the reader's image never
// changes. Once the reader ends, reuse resumes with the oldest image.
func TestSiloPinnedReaderHoldsLimbo(t *testing.T) {
	f := newSiloFixture(2, 1)
	rid := f.rids[0]
	oldest := f.image(rid)
	f.update(t, 0, 7, rid) // retires the loaded image

	reader := mkTxn(1, 0)
	reader.Reset()
	f.p.Begin(reader)
	held, err := f.p.Read(reader, f.tbl, rid)
	if err != nil {
		t.Fatal(err)
	}
	heldPtr := f.image(rid)

	published := make(map[*[]byte]bool)
	for i := 0; i < siloLimboCap+16; i++ {
		f.env.Epoch.Advance()
		f.update(t, 0, int64(100+i), rid)
		img := f.image(rid)
		if published[img] || img == heldPtr {
			t.Fatalf("write %d reused an image while a reader pinned epoch %d", i, reader.Epoch)
		}
		published[img] = true
	}
	if got := f.sch.GetInt64(held, 0); got != 7 {
		t.Fatalf("pinned reader's image changed to %d", got)
	}
	if s := &f.p.slots[0]; s.count != siloLimboCap {
		t.Fatalf("limbo holds %d images, want the cap %d", s.count, siloLimboCap)
	}

	if err := f.p.Commit(reader); err == nil {
		t.Fatal("stale read-only reader passed validation")
	}
	f.env.Epoch.Advance()
	f.update(t, 0, 1, rid)
	if f.image(rid) != oldest {
		t.Fatal("reuse did not resume with the oldest retired image after the reader ended")
	}
}

// TestSiloAnnouncementWithdrawn: Begin announces the transaction's epoch
// and every Commit or Abort outcome withdraws it, or the horizon would stay
// pinned and reuse would stop for good.
func TestSiloAnnouncementWithdrawn(t *testing.T) {
	f := newSiloFixture(2, 2)
	active := func() uint64 { return f.p.slots[0].active.Load() }
	run := func(name string, body func(tx *txn.Txn)) {
		t.Helper()
		tx := mkTxn(0, 0)
		tx.Reset()
		f.p.Begin(tx)
		if got := active(); got != tx.Epoch {
			t.Fatalf("%s: announced %d, want epoch %d", name, got, tx.Epoch)
		}
		body(tx)
		if got := active(); got != siloIdle {
			t.Fatalf("%s: slot still announces epoch %d", name, got)
		}
	}
	run("read-only commit", func(tx *txn.Txn) {
		if _, err := f.p.Read(tx, f.tbl, f.rids[0]); err != nil {
			t.Fatal(err)
		}
		if err := f.p.Commit(tx); err != nil {
			t.Fatal(err)
		}
	})
	run("abort", func(tx *txn.Txn) {
		if _, err := f.p.ReadForUpdate(tx, f.tbl, f.rids[0]); err != nil {
			t.Fatal(err)
		}
		f.p.Abort(tx)
	})
	run("validation failure", func(tx *txn.Txn) {
		if _, err := f.p.Read(tx, f.tbl, f.rids[0]); err != nil {
			t.Fatal(err)
		}
		if _, err := f.p.ReadForUpdate(tx, f.tbl, f.rids[1]); err != nil {
			t.Fatal(err)
		}
		f.update(t, 1, 9, f.rids[0])
		if err := f.p.Commit(tx); err == nil {
			t.Fatal("stale read passed validation")
		}
	})
	run("write commit", func(tx *txn.Txn) {
		if _, err := f.p.ReadForUpdate(tx, f.tbl, f.rids[1]); err != nil {
			t.Fatal(err)
		}
		if err := f.p.Commit(tx); err != nil {
			t.Fatal(err)
		}
	})
}
