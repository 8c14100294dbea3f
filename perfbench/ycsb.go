package main

import (
	"fmt"
	"time"

	"next700/internal/core"
	"next700/internal/storage"
	"next700/internal/wal"
	"next700/internal/xrand"
)

const (
	opsPerTxn = 16
	fieldSize = 100
)

// ycsbDB is one engine holding the YCSB table: column 0 is an 8-byte
// counter every read-modify-write increments, column 1 a 100-byte payload.
type ycsbDB struct {
	eng *core.Engine
	tbl *core.Table
	sch *storage.Schema
}

// setupTimes brackets one set-up: open, schema and load from start to end,
// the load loop alone from loadStart.
type setupTimes struct {
	start, loadStart, end time.Time
	rows, userBytes       uint64
}

// openYCSB opens a SILO engine with a hash-indexed table of rows rows. With
// a device, the engine value-logs through the default single log with a
// group-commit window of 0, so every commit waits for its own flush. The
// payloads derive from seed, so an engine opened again with the same seed
// holds the same initial state, as log recovery requires.
func openYCSB(rows, seed uint64, dev wal.Device) (*ycsbDB, setupTimes, error) {
	start := time.Now()
	cfg := core.Config{Protocol: "SILO", Threads: clients}
	if dev != nil {
		cfg.LogMode = wal.ModeValue
		cfg.LogDevice = dev
	}
	e, err := core.Open(cfg)
	if err != nil {
		return nil, setupTimes{}, err
	}
	sch, err := storage.NewSchema("usertable", storage.I64("counter"), storage.Str("field", fieldSize))
	if err != nil {
		e.Close()
		return nil, setupTimes{}, err
	}
	tbl, err := e.CreateTable(sch, core.IndexHash)
	if err != nil {
		e.Close()
		return nil, setupTimes{}, err
	}
	loadStart := time.Now()
	rng := xrand.New(mix(seed, 0xDA7A))
	row := sch.NewRow()
	field := make([]byte, fieldSize)
	for k := uint64(0); k < rows; k++ {
		sch.SetString(row, 1, rng.Letters(field))
		if err := e.Load(tbl, k, row); err != nil {
			e.Close()
			return nil, setupTimes{}, err
		}
	}
	st := setupTimes{start: start, loadStart: loadStart, end: time.Now(), rows: rows, userBytes: rows * uint64(sch.RowSize())}
	return &ycsbDB{eng: e, tbl: tbl, sch: sch}, st, nil
}

// checkCounters reads every row after the run and compares its counter with
// the read-modify-writes the clients saw acknowledged. It returns the number
// of rows that disagree.
func (db *ycsbDB) checkCounters(acked [][]uint32) (bad uint64, err error) {
	tx := db.eng.NewTx(0, 1)
	var first string
	const chunk = 4096
	rows := uint64(len(acked[0]))
	for lo := uint64(0); lo < rows; lo += chunk {
		hi := min(lo+chunk, rows)
		err := tx.Run(func(tx *core.Tx) error {
			for k := lo; k < hi; k++ {
				row, err := tx.Read(db.tbl, k)
				if err != nil {
					return err
				}
				var want uint64
				for _, a := range acked {
					want += uint64(a[k])
				}
				if got := db.sch.GetInt64(row, 0); uint64(got) != want {
					if bad == 0 {
						first = fmt.Sprintf("row %d: counter %d, acknowledged read-modify-writes %d", k, got, want)
					}
					bad++
				}
			}
			return nil
		})
		if err != nil {
			return bad, fmt.Errorf("reading rows [%d,%d): %w", lo, hi, err)
		}
	}
	if bad > 0 {
		return bad, fmt.Errorf("%d rows disagree, first %s", bad, first)
	}
	return 0, nil
}

// ycsbClient generates 16-op transactions, half reads and half
// read-modify-writes, over distinct keys, and counts per key the
// read-modify-writes of every transaction the engine acknowledged.
type ycsbClient struct {
	db    *ycsbDB
	tx    *core.Tx
	zipf  *xrand.Zipf
	rng   *xrand.RNG
	keys  [opsPerTxn]uint64
	rmw   [opsPerTxn]bool
	acked []uint32

	tr               *txnTracer // nil: tracing off
	body, tracedBody func(*core.Tx) error
}

func newYCSBClient(db *ycsbDB, id int, rows uint64, theta float64, seed uint64, tr *txnTracer) *ycsbClient {
	rng := xrand.New(mix(seed, uint64(id)))
	c := &ycsbClient{
		db: db,
		// The Tx's own random source only jitters retry backoff; it gets a
		// fixed seed, so the engine receives nothing from the run's seed
		// but the generated keys.
		tx:    db.eng.NewTx(id, uint64(id)+1),
		rng:   rng,
		zipf:  xrand.NewZipf(rng, rows, theta),
		acked: make([]uint32, rows),
		tr:    tr,
	}
	c.body = func(tx *core.Tx) error { return c.exec(tx, nil) }
	c.tracedBody = func(tx *core.Tx) error { return c.exec(tx, c.tr) }
	return c
}

func (c *ycsbClient) generate() {
	for i := 0; i < opsPerTxn; i++ {
		k := c.zipf.Next()
		for j := 0; j < i; j++ {
			if c.keys[j] == k {
				k, j = c.zipf.Next(), -1
			}
		}
		c.keys[i] = k
		c.rmw[i] = c.rng.Uint64()&1 == 1
	}
}

func (c *ycsbClient) txn() (traced bool, err error) {
	c.generate()
	if traced = c.tr != nil && c.tr.sample(); traced {
		c.tr.begin(spanRun)
		err = c.tx.Run(c.tracedBody)
		c.tr.finish()
	} else {
		err = c.tx.Run(c.body)
	}
	if err == nil {
		for i, k := range c.keys {
			if c.rmw[i] {
				c.acked[k]++
			}
		}
	}
	return traced, err
}

// exec is the transaction body; with a tracer it brackets the body and each
// call into the engine with spans.
func (c *ycsbClient) exec(tx *core.Tx, tr *txnTracer) error {
	var body int16
	if tr != nil {
		body = tr.open(spanBody, 0)
	}
	db := c.db
	for i, k := range c.keys {
		var s int16
		if tr != nil {
			kind := spanRead
			if c.rmw[i] {
				kind = spanUpdate
			}
			s = tr.open(kind, body)
		}
		var row storage.Row
		var err error
		if c.rmw[i] {
			row, err = tx.Update(db.tbl, k)
			if err == nil {
				db.sch.SetInt64(row, 0, db.sch.GetInt64(row, 0)+1)
			}
		} else {
			row, err = tx.Read(db.tbl, k)
			if err == nil {
				_ = db.sch.GetInt64(row, 0)
			}
		}
		if tr != nil {
			tr.close(s)
		}
		if err != nil {
			if tr != nil {
				tr.close(body)
			}
			return err
		}
	}
	if tr != nil {
		tr.close(body)
	}
	return nil
}
