package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"next700/internal/storage"
	"next700/internal/txn"
)

// TestSiloImageRecyclingStress drives SILO's recycling of committed row
// images under concurrency (it is meant for the -race lane). Writers fill
// whole rows with one value, delete rows and insert them again; readers
// check inside the transaction body that every row they read is uniform and
// stays unchanged while they hold it. A long reader pins its epoch while
// the writers retire more images than a slot's limbo holds, so installs
// fall back to fresh images; after it ends, recycling resumes. The epoch
// ticks every 100 µs so images are recycled many times per run.
func TestSiloImageRecyclingStress(t *testing.T) {
	const (
		cols       = 8
		keys       = 16
		opsPerTxn  = 4
		writers    = 2
		threads    = writers + 2 // + one short reader, one long reader
		readerSlot = writers
		longSlot   = writers + 1
	)
	// Per writer, commits made while the long reader is pinned: 4 images
	// retired each, past the 16,384-image limbo cap.
	pinnedTxns := 4500
	afterTxns := 1500
	if testing.Short() {
		afterTxns = 500
	}

	e := openEngine(t, Config{Protocol: "SILO", Threads: threads, EpochInterval: 100 * time.Microsecond})
	colDefs := make([]storage.Column, cols)
	for i := range colDefs {
		colDefs[i] = storage.I64(fmt.Sprintf("c%d", i))
	}
	sch := storage.MustSchema("uniform", colDefs...)
	tbl, err := e.CreateTable(sch, IndexHash)
	if err != nil {
		t.Fatal(err)
	}
	fill := func(row storage.Row, v int64) {
		for c := 0; c < cols; c++ {
			sch.SetInt64(row, c, v)
		}
	}
	row := sch.NewRow()
	for k := uint64(0); k < keys; k++ {
		fill(row, int64(k))
		if err := e.Load(tbl, k, row); err != nil {
			t.Fatal(err)
		}
	}
	// uniform reports whether every column of row holds want.
	uniform := func(row storage.Row, want int64) bool {
		for c := 0; c < cols; c++ {
			if sch.GetInt64(row, c) != want {
				return false
			}
		}
		return true
	}
	errTorn := errors.New("row image not uniform or changed while held")

	// readAll reads every live key, checks each image, and returns the held
	// images with the value each must keep until the transaction ends.
	readAll := func(tx *Tx, held []storage.Row, vals []int64) ([]storage.Row, []int64, error) {
		held, vals = held[:0], vals[:0]
		for k := uint64(0); k < keys; k++ {
			r, err := tx.Read(tbl, k)
			if errors.Is(err, txn.ErrNotFound) {
				continue
			}
			if err != nil {
				return held, vals, err
			}
			v := sch.GetInt64(r, 0)
			if !uniform(r, v) {
				return held, vals, errTorn
			}
			held, vals = append(held, r), append(vals, v)
		}
		return held, vals, nil
	}
	recheck := func(held []storage.Row, vals []int64) error {
		for i, r := range held {
			if !uniform(r, vals[i]) {
				return errTorn
			}
		}
		return nil
	}

	release := make(chan struct{}) // closed when writer 0 has done pinnedTxns while pinned
	pinned := make(chan struct{})  // closed once the long reader holds its images
	writersDone := make(chan struct{})
	var wg, writerWG sync.WaitGroup

	for w := 0; w < writers; w++ {
		wg.Add(1)
		writerWG.Add(1)
		go func(w int) {
			defer wg.Done()
			defer writerWG.Done()
			tx := e.NewTx(w, uint64(w+1))
			ins := sch.NewRow()
			<-pinned
			for i := 0; i < pinnedTxns+afterTxns; i++ {
				if w == 0 && i == pinnedTxns {
					close(release)
				}
				v := int64(tx.RNG().Uint64n(1 << 40))
				k0 := tx.RNG().Uint64n(keys)
				del := tx.RNG().Uint64n(8) == 0
				err := tx.Run(func(tx *Tx) error {
					for j := uint64(0); j < opsPerTxn; j++ {
						k := (k0 + 5*j) % keys // distinct keys: 5 is coprime to 16
						var err error
						if del && j == 0 {
							err = tx.Delete(tbl, k)
						} else {
							var r storage.Row
							if r, err = tx.Update(tbl, k); err == nil {
								fill(r, v)
							}
						}
						if errors.Is(err, txn.ErrNotFound) {
							fill(ins, v)
							err = tx.Insert(tbl, k, ins)
						}
						if err != nil {
							return err
						}
					}
					return nil
				})
				// A concurrent insert of the same key loses the race.
				if err != nil && !errors.Is(err, txn.ErrDuplicate) {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	go func() {
		writerWG.Wait()
		close(writersDone)
	}()

	// Short reader: many small read transactions until the writers finish.
	wg.Add(1)
	go func() {
		defer wg.Done()
		tx := e.NewTx(readerSlot, 99)
		var held []storage.Row
		var vals []int64
		for {
			select {
			case <-writersDone:
				return
			default:
			}
			err := tx.Run(func(tx *Tx) error {
				var err error
				if held, vals, err = readAll(tx, held, vals); err != nil {
					return err
				}
				runtime.Gosched()
				return recheck(held, vals)
			})
			if err != nil {
				t.Errorf("reader: %v", err)
				return
			}
		}
	}()

	// Long reader: its first attempt holds its images until writer 0 has
	// committed pinnedTxns transactions.
	wg.Add(1)
	go func() {
		defer wg.Done()
		tx := e.NewTx(longSlot, 7)
		var held []storage.Row
		var vals []int64
		first := true
		err := tx.Run(func(tx *Tx) error {
			var err error
			if held, vals, err = readAll(tx, held, vals); err != nil {
				return err
			}
			if first {
				first = false
				close(pinned)
				select {
				case <-release:
				case <-writersDone:
				}
			}
			return recheck(held, vals)
		})
		if err != nil {
			t.Errorf("long reader: %v", err)
			if first {
				close(pinned)
			}
		}
	}()
	wg.Wait()
}
