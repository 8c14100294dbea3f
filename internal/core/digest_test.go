package core

import "testing"

// TestStateDigestTracksCommittedState: the digest hashes committed images,
// so it changes with every committed update and delete, and matches an
// engine loaded directly with the same logical state. SILO and MVCC keep
// committed images outside the table arena, where a digest of the arena
// would not see the update.
func TestStateDigestTracksCommittedState(t *testing.T) {
	forAllProtocols(t, func(t *testing.T, protocol string) {
		// loaded returns the digest of a fresh engine holding keys 0..3 =
		// vals, with the keys in skip absent.
		loaded := func(vals [4]int64, skip map[uint64]bool) [32]byte {
			e := openEngine(t, Config{Protocol: protocol, Threads: 1})
			tbl := kvTable(t, e, "kv", IndexHash, 0)
			row := tbl.Schema().NewRow()
			for k, v := range vals {
				if skip[uint64(k)] {
					continue
				}
				setV(tbl, row, v)
				if err := e.Load(tbl, uint64(k), row); err != nil {
					t.Fatal(err)
				}
			}
			return e.StateDigest()
		}

		e := openEngine(t, Config{Protocol: protocol, Threads: 1})
		tbl := kvTable(t, e, "kv", IndexHash, 4)
		tx := e.NewTx(0, 1)
		before := e.StateDigest()
		if err := tx.Run(func(tx *Tx) error {
			r, err := tx.Update(tbl, 1)
			if err != nil {
				return err
			}
			setV(tbl, r, 42)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		updated := e.StateDigest()
		if updated == before {
			t.Fatal("digest unchanged by a committed update")
		}
		if want := loaded([4]int64{0, 42, 0, 0}, nil); updated != want {
			t.Fatal("digest after update differs from an engine loaded with the same state")
		}
		if err := tx.Run(func(tx *Tx) error { return tx.Delete(tbl, 2) }); err != nil {
			t.Fatal(err)
		}
		if want := loaded([4]int64{0, 42, 0, 0}, map[uint64]bool{2: true}); e.StateDigest() != want {
			t.Fatal("digest after delete differs from an engine loaded with the same state")
		}
	})
}
