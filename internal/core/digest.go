package core

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"

	"next700/internal/storage"
)

// StateDigest returns a canonical SHA-256 digest of all live table state:
// for every table in name order, every live (key, row image) pair in key
// order. Record IDs, index layout, and partition assignment are deliberately
// excluded — the digest captures logical database state, so two engines that
// executed the same transactions reach the same digest regardless of worker
// count or allocation order. This is the oracle deterministic execution is
// judged by: same seed, same batches ⇒ byte-identical digests.
//
// Row images are the committed ones (checkpointRow): SILO and MVCC keep
// them outside the table arena, which they never write after load.
//
// The engine must be quiescent; StateDigest reads rows without concurrency
// control.
//
//next700:locked(Engine.mu: verification-only digest; the engine is quiescent by contract when this runs)
func (e *Engine) StateDigest() [sha256.Size]byte {
	e.mu.RLock()
	names := make([]string, 0, len(e.tables))
	for name := range e.tables {
		names = append(names, name)
	}
	tables := make([]*Table, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		tables = append(tables, e.tables[name])
	}
	e.mu.RUnlock()

	h := sha256.New()
	var scratch [8]byte
	var keys []uint64
	var rids []storage.RecordID
	var row []byte
	for i, t := range tables {
		keys = keys[:0]
		rids = rids[:0]
		t.primary.Iterate(func(key uint64, rid storage.RecordID) bool {
			if t.tbl.IsTombstoned(rid) {
				return true
			}
			keys = append(keys, key)
			rids = append(rids, rid)
			return true
		})
		// Key-sort so hash-index iteration order cannot leak into the
		// digest (the B+ tree already iterates in key order; the hash index
		// does not).
		sort.Sort(&keyRIDSort{keys: keys, rids: rids})
		h.Write([]byte(names[i]))
		for j, key := range keys {
			binary.LittleEndian.PutUint64(scratch[:], key)
			h.Write(scratch[:])
			row = e.checkpointRow(row[:0], t, rids[j])
			h.Write(row)
		}
	}
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out
}

// keyRIDSort sorts parallel key/rid slices by key.
type keyRIDSort struct {
	keys []uint64
	rids []storage.RecordID
}

func (s *keyRIDSort) Len() int           { return len(s.keys) }
func (s *keyRIDSort) Less(i, j int) bool { return s.keys[i] < s.keys[j] }
func (s *keyRIDSort) Swap(i, j int) {
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
	s.rids[i], s.rids[j] = s.rids[j], s.rids[i]
}
