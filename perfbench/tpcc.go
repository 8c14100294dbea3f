package main

import (
	"time"

	"next700/internal/core"
	"next700/internal/workload"
)

// tpccTables are the nine TPC-C tables workload.TPCC creates.
var tpccTables = []string{
	"warehouse", "district", "customer", "history", "new_order",
	"orders", "order_line", "item", "stock",
}

// openTPCC opens a NO_WAIT engine without logging and loads cfg's TPC-C
// population. workload.TPCC loads inside Setup, so the load time is the
// whole set-up.
func openTPCC(cfg workload.TPCCConfig) (*core.Engine, *workload.TPCC, setupTimes, error) {
	start := time.Now()
	e, err := core.Open(core.Config{Protocol: "NO_WAIT", Threads: clients})
	if err != nil {
		return nil, nil, setupTimes{}, err
	}
	t := workload.NewTPCC(cfg)
	if err := t.Setup(e); err != nil {
		e.Close()
		return nil, nil, setupTimes{}, err
	}
	st := setupTimes{start: start, loadStart: start, end: time.Now()}
	for _, name := range tpccTables {
		tbl := e.Table(name)
		st.rows += tbl.NumRows()
		st.userBytes += tbl.NumRows() * uint64(tbl.Schema().RowSize())
	}
	return e, t, st, nil
}

// tpccClient runs the TPC-C mix from one terminal: workload.TPCC draws the
// transaction type and its inputs from the Tx's random source, seeded by
// the benchmark, and runs it with the engine's retry loop. A spec user
// abort (the 1% rolled-back NewOrder) returns nil: it is an outcome.
type tpccClient struct {
	t  *workload.TPCC
	tx *core.Tx
	tr *txnTracer // nil: tracing off
}

func (c *tpccClient) txn() (traced bool, err error) {
	if c.tr != nil && c.tr.sample() {
		c.tr.begin(spanRunOne)
		err = c.t.RunOne(c.tx)
		c.tr.finish()
		return true, err
	}
	return false, c.t.RunOne(c.tx)
}
