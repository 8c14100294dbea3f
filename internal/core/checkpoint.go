package core

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sort"
	"time"

	"next700/internal/storage"
	"next700/internal/txn"
)

// Checkpoint format:
//
//	magic "N7CK" | version u32 | tableCount u32
//	per table: nameLen u32 | name | rowSize u32 | entryCount u64
//	  per entry: key u64 | rid u64 | row bytes (rowSize)
//	crc32 (IEEE) over everything before it
//
// Version 2 is the partition-sliced variant: after the version word it
// carries `partition u32 | epoch u64` — the slice's partition id and its
// epoch fence (the slice holds that partition's effects through this
// epoch, healed by replaying the partition's log tail past it). A sliced
// generation is one version-2 object per partition, each independently
// CRC-sealed, so corruption of one slice degrades only that partition's
// recovery path.
//
// Entries are written in ascending key order so checkpoints of equal state
// are byte-identical.

var checkpointMagic = [4]byte{'N', '7', 'C', 'K'}

const (
	checkpointVersion      = 1
	checkpointSliceVersion = 2
)

// ckptMeta is the parsed identity of a checkpoint stream: whole-engine
// (sliced false) or one partition's slice with its embedded epoch fence.
type ckptMeta struct {
	sliced    bool
	partition int
	epoch     uint64
}

// ErrBadCheckpoint reports a malformed or corrupt checkpoint stream.
var ErrBadCheckpoint = errors.New("core: bad checkpoint")

// crcWriter tees writes into a running CRC.
type crcWriter struct {
	w   io.Writer
	crc uint32
}

func (cw *crcWriter) Write(p []byte) (int, error) {
	cw.crc = crc32.Update(cw.crc, crc32.IEEETable, p)
	return cw.w.Write(p)
}

// Checkpoint serializes a transactionally consistent snapshot of every
// table to w. The engine must be quiesced (no in-flight transactions);
// combined with starting a fresh WAL right after, it bounds recovery to
// checkpoint load plus the log tail.
//
// Only index-reachable, live records are written; aborted or deleted
// residue is not. Record ids are preserved so a value-log tail written
// after the checkpoint replays against the restored state.
func (e *Engine) Checkpoint(w io.Writer) error {
	return e.writeCheckpoint(w, nil, e.collectQuiesced)
}

// CheckpointOnline serializes a fuzzy snapshot of every table while
// transactions keep running: each row is captured through a committed-read
// micro-transaction on the reserved checkpoint slot, so no image is ever
// torn, but different rows may reflect different commit points. The result
// is consistent only after replaying the value-log tail past the capture's
// start epoch (see Checkpointer): any commit the scan raced with tags an
// epoch at or after it, and value replay is idempotent. It must therefore
// only be used under value logging; command replay re-executes procedures
// and cannot heal a fuzzy base.
//
// Rows whose committed image is not visible (uncommitted inserts, deleted
// residue) are skipped: if they commit, the log tail has them.
func (e *Engine) CheckpointOnline(w io.Writer) error {
	return e.writeCheckpoint(w, nil, e.collectOnline)
}

// CheckpointSlice serializes one partition's slice of the engine state:
// only rows whose primary key maps to part are written, under the
// version-2 format carrying (part, epoch) as the slice identity and epoch
// fence. online selects the fuzzy scan (value logging; heal by replaying
// the partition's tail past epoch); otherwise the caller must have
// quiesced the engine.
func (e *Engine) CheckpointSlice(w io.Writer, part int, epoch uint64, online bool) error {
	collect := e.collectQuiesced
	if online {
		collect = e.collectOnline
	}
	sliced := func(t *Table) ([]ckptEntry, error) {
		entries, err := collect(t)
		if err != nil {
			return nil, err
		}
		out := entries[:0]
		for _, en := range entries {
			if e.partitionOfKey(t.tbl, en.key) == part {
				out = append(out, en)
			}
		}
		return out, nil
	}
	return e.writeCheckpoint(w, &ckptMeta{sliced: true, partition: part, epoch: epoch}, sliced)
}

// writeCheckpoint writes the checkpoint format around a row collector.
// slice non-nil selects the version-2 per-partition header.
func (e *Engine) writeCheckpoint(w io.Writer, slice *ckptMeta, collect func(t *Table) ([]ckptEntry, error)) error {
	bw := bufio.NewWriter(w)
	cw := &crcWriter{w: bw}
	var scratch [20]byte

	tables := e.snapshotTables()
	if _, err := cw.Write(checkpointMagic[:]); err != nil {
		return err
	}
	version := uint32(checkpointVersion)
	if slice != nil {
		version = checkpointSliceVersion
	}
	binary.LittleEndian.PutUint32(scratch[0:], version)
	if _, err := cw.Write(scratch[:4]); err != nil {
		return err
	}
	if slice != nil {
		binary.LittleEndian.PutUint32(scratch[0:], uint32(slice.partition))
		binary.LittleEndian.PutUint64(scratch[4:], slice.epoch)
		if _, err := cw.Write(scratch[:12]); err != nil {
			return err
		}
	}
	binary.LittleEndian.PutUint32(scratch[0:], uint32(len(tables)))
	if _, err := cw.Write(scratch[:4]); err != nil {
		return err
	}

	for _, t := range tables {
		entries, err := collect(t)
		if err != nil {
			return err
		}
		name := t.Name()
		binary.LittleEndian.PutUint32(scratch[0:], uint32(len(name)))
		if _, err := cw.Write(scratch[:4]); err != nil {
			return err
		}
		if _, err := io.WriteString(cw, name); err != nil {
			return err
		}
		binary.LittleEndian.PutUint32(scratch[0:], uint32(t.sch.RowSize()))
		binary.LittleEndian.PutUint64(scratch[4:], uint64(len(entries)))
		if _, err := cw.Write(scratch[:12]); err != nil {
			return err
		}
		for _, en := range entries {
			binary.LittleEndian.PutUint64(scratch[0:], en.key)
			binary.LittleEndian.PutUint64(scratch[8:], uint64(en.rid))
			if _, err := cw.Write(scratch[:16]); err != nil {
				return err
			}
			if _, err := cw.Write(en.row); err != nil {
				return err
			}
		}
	}

	binary.LittleEndian.PutUint32(scratch[0:], cw.crc)
	if _, err := bw.Write(scratch[:4]); err != nil {
		return err
	}
	return bw.Flush()
}

// ckptEntry is one collected (key, rid, row image) triple.
type ckptEntry struct {
	key uint64
	rid storage.RecordID
	row []byte
}

// collectKeys snapshots a table's primary index into key order.
func collectKeys(t *Table) []ckptEntry {
	entries := make([]ckptEntry, 0, t.primary.Len())
	t.primary.Iterate(func(key uint64, rid storage.RecordID) bool {
		entries = append(entries, ckptEntry{key: key, rid: rid})
		return true
	})
	sort.Slice(entries, func(i, j int) bool { return entries[i].key < entries[j].key })
	return entries
}

// collectQuiesced captures rows with the engine quiesced.
func (e *Engine) collectQuiesced(t *Table) ([]ckptEntry, error) {
	entries := collectKeys(t)
	for i := range entries {
		entries[i].row = e.checkpointRow(nil, t, entries[i].rid)
	}
	return entries, nil
}

// onlineRowAttempts bounds the committed-read retries per row before the
// checkpoint cycle fails cleanly (no generation is installed). Conflicts
// here are rare: a row is only contended for the length of one commit.
const onlineRowAttempts = 64

// collectOnline captures rows through per-row committed-read
// micro-transactions concurrent with workers. A read that cannot see a
// committed image (ErrNotFound: uncommitted insert, tombstoned residue)
// skips the row; a conflicting read (lock busy under the 2PL variants) is
// retried a bounded number of times. Images are copied out before the read
// transaction is released, so nothing aliases memory a writer may recycle.
func (e *Engine) collectOnline(t *Table) ([]ckptEntry, error) {
	entries := collectKeys(t)
	tx := e.checkpointTx()
	out := entries[:0]
	for i := range entries {
		en := entries[i]
		var row []byte
		var err error
		for attempt := 0; ; attempt++ {
			row, err = e.onlineRow(tx, t, en.rid)
			if err == nil || errors.Is(err, txn.ErrNotFound) {
				break
			}
			if attempt+1 >= onlineRowAttempts {
				return nil, fmt.Errorf("core: online checkpoint of %q rid %d: %w", t.Name(), en.rid, err)
			}
			time.Sleep(time.Duration(attempt+1) * 10 * time.Microsecond)
		}
		if err != nil {
			continue //next700:allowretry(skip, not retry: the row is left to the log tail; the loop advances to the next entry)
		}
		en.row = row
		out = append(out, en)
	}
	return out, nil
}

// onlineRow reads one committed row image through a throwaway transaction
// and returns a copy.
func (e *Engine) onlineRow(tx *Tx, t *Table, rid storage.RecordID) ([]byte, error) {
	tx.inner.Reset()
	e.proto.Begin(tx.inner)
	data, err := e.proto.Read(tx.inner, t.tbl, rid)
	if err != nil {
		e.proto.Abort(tx.inner)
		return nil, err
	}
	row := append([]byte(nil), data...)
	e.proto.Abort(tx.inner)
	return row, nil
}

// checkpointRow appends the committed image of a live record to dst. For
// version-storing protocols (MVCC, SILO) the table row can be stale, so
// the committed image is fetched through a throwaway read and copied out
// before the read's Abort releases it.
func (e *Engine) checkpointRow(dst []byte, t *Table, rid storage.RecordID) []byte {
	tx := e.checkpointTx()
	tx.inner.Reset()
	e.proto.Begin(tx.inner)
	data, err := e.proto.Read(tx.inner, t.tbl, rid)
	if err != nil {
		// Tombstoned or invisible residue: emit the raw row (it will be
		// superseded by log replay if it matters).
		data = t.tbl.Row(rid)
	}
	dst = append(dst, data...)
	e.proto.Abort(tx.inner)
	return dst
}

// checkpointTx lazily creates the dedicated checkpoint-phase context. It
// runs on the reserved protocol slot past the worker range, so its reads
// share no per-thread protocol state or statistics cache line with workers
// even when the scan is online.
func (e *Engine) checkpointTx() *Tx {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.ckptTx == nil {
		e.ckptTx = e.NewTx(e.ckptThread, 0xC4EC)
	}
	return e.ckptTx
}

// ckptTableLoad is one fully validated table section of a checkpoint,
// ready to apply. Entry rows alias the checkpoint buffer.
type ckptTableLoad struct {
	t       *Table
	entries []ckptEntry
}

// LoadCheckpoint restores a checkpoint into a freshly created engine whose
// tables have already been created with matching schemas (the same
// contract as Recover). Must not run concurrently with transactions.
//
// The stream is read fully, CRC-verified, and structurally validated —
// tables known, row sizes matching, record ids in range, keys free of
// duplicates (within the checkpoint and against the engine) — before
// anything is applied, so a corrupt checkpoint never partially mutates the
// engine: it either loads completely or leaves the engine untouched.
func (e *Engine) LoadCheckpoint(r io.Reader) error {
	data, err := io.ReadAll(r)
	if err != nil {
		return fmt.Errorf("%w: read: %v", ErrBadCheckpoint, err)
	}
	plan, meta, err := e.parseCheckpoint(data)
	if err != nil {
		return err
	}
	if meta.sliced {
		// A slice is one partition's state, not the engine's: loading it as
		// a whole checkpoint would silently drop every other partition.
		return fmt.Errorf("%w: stream is a partition slice (partition %d), not a whole checkpoint",
			ErrBadCheckpoint, meta.partition)
	}
	e.applyCheckpointPlan(plan)
	return nil
}

// LoadCheckpointSlice restores one partition's slice into the engine and
// returns the slice's epoch fence. The stream must be a version-2 slice for
// exactly part, and every key in it must map to part under the engine's
// partitioner — a slice written under a different partitioning (or routed
// to the wrong partition) is rejected completely, like any corrupt
// checkpoint: it either loads completely or leaves the engine untouched.
func (e *Engine) LoadCheckpointSlice(r io.Reader, part int) (uint64, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return 0, fmt.Errorf("%w: read: %v", ErrBadCheckpoint, err)
	}
	plan, meta, err := e.parseCheckpoint(data)
	if err != nil {
		return 0, err
	}
	if !meta.sliced {
		return 0, fmt.Errorf("%w: stream is a whole checkpoint, not a partition slice", ErrBadCheckpoint)
	}
	if meta.partition != part {
		return 0, fmt.Errorf("%w: slice is for partition %d, want %d", ErrBadCheckpoint, meta.partition, part)
	}
	for _, tl := range plan {
		for _, en := range tl.entries {
			if p := e.partitionOfKey(tl.t.tbl, en.key); p != part {
				return 0, fmt.Errorf("%w: slice for partition %d holds key %d of partition %d",
					ErrBadCheckpoint, part, en.key, p)
			}
		}
	}
	e.applyCheckpointPlan(plan)
	return meta.epoch, nil
}

// applyCheckpointPlan applies a fully validated checkpoint plan.
func (e *Engine) applyCheckpointPlan(plan []ckptTableLoad) {
	for _, tl := range plan {
		t := tl.t
		for _, en := range tl.entries {
			for t.tbl.NumRows() <= uint64(en.rid) {
				t.tbl.Alloc()
			}
			copy(t.tbl.Row(en.rid), en.row)
			t.tbl.SetTombstone(en.rid, false)
			t.primary.Insert(en.key, en.rid)
			for j := range t.secondaries {
				s := &t.secondaries[j]
				s.idx.Insert(s.extract(t.sch, en.row, en.key), en.rid)
			}
			e.reloadRecord(t, en.rid, en.key, en.row)
		}
	}
}

// parseCheckpoint verifies the CRC and fully validates the checkpoint
// structure without touching engine state. Returned entry rows alias data.
func (e *Engine) parseCheckpoint(data []byte) ([]ckptTableLoad, ckptMeta, error) {
	var meta ckptMeta
	if len(data) < 4+8+4 {
		return nil, meta, fmt.Errorf("%w: too short", ErrBadCheckpoint)
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(tail) {
		return nil, meta, fmt.Errorf("%w: crc mismatch", ErrBadCheckpoint)
	}

	take := func(n int) ([]byte, error) {
		if n < 0 || len(body) < n {
			return nil, fmt.Errorf("%w: truncated body", ErrBadCheckpoint)
		}
		out := body[:n]
		body = body[n:]
		return out, nil
	}

	hdr, err := take(4 + 4)
	if err != nil {
		return nil, meta, err
	}
	if [4]byte(hdr[:4]) != checkpointMagic {
		return nil, meta, fmt.Errorf("%w: bad magic", ErrBadCheckpoint)
	}
	switch v := binary.LittleEndian.Uint32(hdr[4:]); v {
	case checkpointVersion:
	case checkpointSliceVersion:
		sh, err := take(4 + 8)
		if err != nil {
			return nil, meta, err
		}
		meta.sliced = true
		meta.partition = int(binary.LittleEndian.Uint32(sh))
		meta.epoch = binary.LittleEndian.Uint64(sh[4:])
		if meta.partition < 0 || meta.partition >= e.cfg.Partitions {
			return nil, meta, fmt.Errorf("%w: slice partition %d out of range", ErrBadCheckpoint, meta.partition)
		}
	default:
		return nil, meta, fmt.Errorf("%w: unsupported version %d", ErrBadCheckpoint, v)
	}
	cb, err := take(4)
	if err != nil {
		return nil, meta, err
	}
	tableCount := int(binary.LittleEndian.Uint32(cb))

	plan := make([]ckptTableLoad, 0, tableCount)
	seenTables := make(map[string]bool, tableCount)
	for ti := 0; ti < tableCount; ti++ {
		b, err := take(4)
		if err != nil {
			return nil, meta, err
		}
		nameLen := int(binary.LittleEndian.Uint32(b))
		if nameLen > 1<<16 {
			return nil, meta, fmt.Errorf("%w: absurd name length", ErrBadCheckpoint)
		}
		nameBytes, err := take(nameLen)
		if err != nil {
			return nil, meta, err
		}
		name := string(nameBytes)
		t := e.Table(name)
		if t == nil {
			return nil, meta, fmt.Errorf("%w: unknown table %q", ErrBadCheckpoint, name)
		}
		if seenTables[name] {
			return nil, meta, fmt.Errorf("%w: table %q appears twice", ErrBadCheckpoint, name)
		}
		seenTables[name] = true
		b, err = take(12)
		if err != nil {
			return nil, meta, err
		}
		rowSize := int(binary.LittleEndian.Uint32(b))
		if rowSize != t.sch.RowSize() {
			return nil, meta, fmt.Errorf("%w: table %q row size %d != schema %d",
				ErrBadCheckpoint, t.Name(), rowSize, t.sch.RowSize())
		}
		count := binary.LittleEndian.Uint64(b[4:])
		// Every rid in a valid checkpoint is below the source table's
		// allocation count, which is at most the entry count of all tables
		// combined plus pre-existing rows; the body length bounds that. A
		// slice carries only its partition's rows but source-table rids, so
		// the bound scales by the partition count — under heavy allocation
		// skew a legitimate slice can still exceed it, in which case the
		// parse error costs that partition its bounded-recovery head start
		// (CheckpointFallbacks), never correctness.
		maxRID := uint64(len(data))/16 + t.tbl.NumRows() + 1
		if meta.sliced {
			maxRID = uint64(len(data))/16*uint64(e.cfg.Partitions) + t.tbl.NumRows() + 1
		}
		if count > uint64(len(body)) {
			return nil, meta, fmt.Errorf("%w: truncated body", ErrBadCheckpoint)
		}
		tl := ckptTableLoad{t: t, entries: make([]ckptEntry, 0, count)}
		seenKeys := make(map[uint64]bool, count)
		for i := uint64(0); i < count; i++ {
			b, err = take(16 + rowSize)
			if err != nil {
				return nil, meta, err
			}
			key := binary.LittleEndian.Uint64(b)
			rid := storage.RecordID(binary.LittleEndian.Uint64(b[8:]))
			if uint64(rid) > maxRID {
				return nil, meta, fmt.Errorf("%w: record id %d out of range", ErrBadCheckpoint, rid)
			}
			if seenKeys[key] {
				return nil, meta, fmt.Errorf("%w: duplicate key %d in %q", ErrBadCheckpoint, key, t.Name())
			}
			seenKeys[key] = true
			if _, exists := t.primary.Lookup(key); exists {
				return nil, meta, fmt.Errorf("%w: key %d already present in %q", ErrBadCheckpoint, key, t.Name())
			}
			tl.entries = append(tl.entries, ckptEntry{key: key, rid: rid, row: b[16:]})
		}
		plan = append(plan, tl)
	}
	if len(body) != 0 {
		return nil, meta, fmt.Errorf("%w: %d trailing bytes", ErrBadCheckpoint, len(body))
	}
	return plan, meta, nil
}

// snapshotTables returns the table handles in id order.
//
//next700:locked(Engine.mu: checkpoint-path snapshot of the table registry; small, and never on the txn path)
func (e *Engine) snapshotTables() []*Table {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make([]*Table, 0, len(e.byID))
	for _, t := range e.byID {
		if t != nil {
			out = append(out, t)
		}
	}
	return out
}
