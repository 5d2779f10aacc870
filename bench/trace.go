package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/pagestore"
)

// The traced run sees the layers from outside, through seams the program
// already has: server.Client calls (client spans), a RecoveryManager wrapped
// around the pure kernel (kernel spans) and a pagestore.Backend wrapped
// around the medium (store spans). Server service time and Guard wait/hold
// come from the program's own server.Metrics and live.GuardMetrics sums. A
// layer's self time is its spans minus the spans of the layer below.

type layerID uint8

const (
	layerClient layerID = iota
	layerKernel
	layerStore
)

var layerNames = [...]string{"client", "kernel", "store"}

type opID uint8

const (
	opNone opID = iota
	opTxn       // client: begin of the first attempt to commit ack
	opBegin
	opRead
	opWrite
	opCommit
	opAbort
	opLoad
	opCrash
	opRecover
	opReadCommitted
	opGet
	opPut
	opDel
	opKeys
	opPowerOn
	opFold // a store put that had to fold the log into the page file first
)

var opNames = [...]string{"", "txn", "begin", "read", "write", "commit", "abort", "load",
	"crash", "recover", "readcommitted", "get", "put", "del", "keys", "poweron", "fold"}

// span is one timed call at a layer boundary. Spans of one transaction share
// txn (the id Begin returned, which is also the kernel's tid); parent names
// the op of the span one layer up that caused this one.
type span struct {
	txn        uint64
	layer      layerID
	op, parent opID
	start, end int64 // ns since the tracer's epoch
}

func (s span) dur() int64 { return s.end - s.start }

// tracer holds the kernel and store spans of one engine. Every kernel call,
// and so every store call, runs under the one Guard mutex of the default
// envelope, which is what makes the unlocked slice and the published current
// kernel call sound. The sums are atomic because the harness reads them at
// the slice boundaries while sessions are still running.
type tracer struct {
	epoch time.Time
	spans []span

	curTxn uint64 // kernel call in progress, for parenting store spans
	curOp  opID

	kernelNs atomic.Int64
	storeNs  atomic.Int64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<20)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) kernelEnter(tid uint64, op opID) int64 {
	t.curTxn, t.curOp = tid, op
	return t.now()
}

func (t *tracer) kernelExit(tid uint64, op opID, start int64) {
	end := t.now()
	t.spans = append(t.spans, span{txn: tid, layer: layerKernel, op: op, parent: op, start: start, end: end})
	t.kernelNs.Add(end - start)
	t.curTxn, t.curOp = 0, opNone
}

func (t *tracer) storeSpan(op opID, start int64) {
	end := t.now()
	t.spans = append(t.spans, span{txn: t.curTxn, layer: layerStore, op: op, parent: t.curOp, start: start, end: end})
	if op != opFold { // a fold span repeats the put span around it
		t.storeNs.Add(end - start)
	}
}

// tracedKernel is a RecoveryManager that leaves a span around every call into
// the pure kernel it wraps.
type tracedKernel struct {
	inner engine.RecoveryManager
	tr    *tracer
}

func (k *tracedKernel) Name() string { return k.inner.Name() }

func (k *tracedKernel) Load(p int64, data []byte) error {
	s := k.tr.kernelEnter(0, opLoad)
	defer k.tr.kernelExit(0, opLoad, s)
	return k.inner.Load(p, data)
}

func (k *tracedKernel) Begin(tid uint64) error {
	s := k.tr.kernelEnter(tid, opBegin)
	defer k.tr.kernelExit(tid, opBegin, s)
	return k.inner.Begin(tid)
}

func (k *tracedKernel) Read(tid uint64, p int64) ([]byte, error) {
	s := k.tr.kernelEnter(tid, opRead)
	defer k.tr.kernelExit(tid, opRead, s)
	return k.inner.Read(tid, p)
}

func (k *tracedKernel) Write(tid uint64, p int64, data []byte) error {
	s := k.tr.kernelEnter(tid, opWrite)
	defer k.tr.kernelExit(tid, opWrite, s)
	return k.inner.Write(tid, p, data)
}

func (k *tracedKernel) Commit(tid uint64) error {
	s := k.tr.kernelEnter(tid, opCommit)
	defer k.tr.kernelExit(tid, opCommit, s)
	return k.inner.Commit(tid)
}

func (k *tracedKernel) Abort(tid uint64) error {
	s := k.tr.kernelEnter(tid, opAbort)
	defer k.tr.kernelExit(tid, opAbort, s)
	return k.inner.Abort(tid)
}

func (k *tracedKernel) Crash() {
	s := k.tr.kernelEnter(0, opCrash)
	defer k.tr.kernelExit(0, opCrash, s)
	k.inner.Crash()
}

func (k *tracedKernel) Recover() error {
	s := k.tr.kernelEnter(0, opRecover)
	defer k.tr.kernelExit(0, opRecover, s)
	return k.inner.Recover()
}

func (k *tracedKernel) ReadCommitted(p int64) ([]byte, error) {
	s := k.tr.kernelEnter(0, opReadCommitted)
	defer k.tr.kernelExit(0, opReadCommitted, s)
	return k.inner.ReadCommitted(p)
}

// Stats forwards the kernel's own counters (the WAL's "scanned" log records)
// through the second Guard.
func (k *tracedKernel) Stats() map[string]int64 {
	if ss, ok := k.inner.(engine.StatsSource); ok {
		return ss.Stats()
	}
	return map[string]int64{}
}

// meterCounts is what a meter has seen: calls and payload bytes at the
// Backend boundary, and file operations and bytes where the backend has a
// file surface.
type meterCounts struct {
	Gets, Puts, Dels, PutBytes int64
	Appends, Syncs, Folds      int64
	FileBytes                  int64
}

func (c *meterCounts) add(o meterCounts) {
	c.Gets += o.Gets
	c.Puts += o.Puts
	c.Dels += o.Dels
	c.PutBytes += o.PutBytes
	c.Appends += o.Appends
	c.Syncs += o.Syncs
	c.Folds += o.Folds
	c.FileBytes += o.FileBytes
}

func (c meterCounts) sub(o meterCounts) meterCounts {
	return meterCounts{
		Gets: c.Gets - o.Gets, Puts: c.Puts - o.Puts, Dels: c.Dels - o.Dels,
		PutBytes: c.PutBytes - o.PutBytes, Appends: c.Appends - o.Appends,
		Syncs: c.Syncs - o.Syncs, Folds: c.Folds - o.Folds, FileBytes: c.FileBytes - o.FileBytes,
	}
}

// walRecOverhead is filestore's framing around one log record: seq, op, id,
// version, length and crc.
const walRecOverhead = 33

// meter is a pagestore.Backend that counts what passes through it and, with
// a tracer, times it. It forwards the file-fault surface so the counting
// FileHook reaches a file-backed medium.
type meter struct {
	inner pagestore.Backend
	tr    *tracer
	dir   string // the file-backed store's directory, "" on memory

	// deferSync makes the file hook answer every fsync with FileSkipSync:
	// the record is appended and acknowledged, and the next real fsync of the
	// log makes it durable. Set only while a repeat preloads its pages.
	deferSync atomic.Bool

	gets, puts, dels, putBytes       atomic.Int64
	appends, syncs, folds, fileBytes atomic.Int64
}

func (m *meter) snapshot() meterCounts {
	return meterCounts{
		Gets: m.gets.Load(), Puts: m.puts.Load(), Dels: m.dels.Load(), PutBytes: m.putBytes.Load(),
		Appends: m.appends.Load(), Syncs: m.syncs.Load(), Folds: m.folds.Load(), FileBytes: m.fileBytes.Load(),
	}
}

// fileHook counts file operations and never injects a fault. A fold's bytes
// are read off the page file it has just renamed into place.
func (m *meter) fileHook(op pagestore.FileOp, name string, seq int64) pagestore.FileFault {
	switch op {
	case pagestore.FileAppend:
		m.appends.Add(1)
	case pagestore.FileSync:
		if m.deferSync.Load() {
			return pagestore.FileSkipSync
		}
		m.syncs.Add(1)
	case pagestore.FilePageWrite:
		m.folds.Add(1)
	case pagestore.FileTruncate:
		if fi, err := os.Stat(filepath.Join(m.dir, "data.db")); err == nil {
			m.fileBytes.Add(fi.Size())
		}
	}
	return pagestore.FileOK
}

func (m *meter) SetFileHook(h pagestore.FileHook) {
	if fi, ok := m.inner.(pagestore.FileInjectable); ok {
		fi.SetFileHook(h)
	}
}

func (m *meter) FileOps() int64 {
	if fi, ok := m.inner.(pagestore.FileInjectable); ok {
		return fi.FileOps()
	}
	return 0
}

func (m *meter) Get(id pagestore.PageID) ([]byte, uint64, bool) {
	m.gets.Add(1)
	if m.tr != nil {
		defer m.tr.storeSpan(opGet, m.tr.now())
	}
	return m.inner.Get(id)
}

func (m *meter) Has(id pagestore.PageID) bool {
	m.gets.Add(1)
	if m.tr != nil {
		defer m.tr.storeSpan(opGet, m.tr.now())
	}
	return m.inner.Has(id)
}

func (m *meter) Put(id pagestore.PageID, data []byte, version uint64) error {
	m.puts.Add(1)
	m.putBytes.Add(int64(len(data)))
	if m.dir != "" {
		m.fileBytes.Add(int64(walRecOverhead + len(data)))
	}
	if m.tr == nil {
		return m.inner.Put(id, data, version)
	}
	start, folds := m.tr.now(), m.folds.Load()
	err := m.inner.Put(id, data, version)
	m.tr.storeSpan(opPut, start)
	if m.folds.Load() != folds {
		m.tr.storeSpan(opFold, start)
	}
	return err
}

func (m *meter) Del(id pagestore.PageID) error {
	m.dels.Add(1)
	if m.dir != "" {
		m.fileBytes.Add(walRecOverhead)
	}
	if m.tr != nil {
		defer m.tr.storeSpan(opDel, m.tr.now())
	}
	return m.inner.Del(id)
}

func (m *meter) Keys() []pagestore.PageID {
	if m.tr != nil {
		defer m.tr.storeSpan(opKeys, m.tr.now())
	}
	return m.inner.Keys()
}

func (m *meter) PowerOn() error {
	if m.tr != nil {
		defer m.tr.storeSpan(opPowerOn, m.tr.now())
	}
	return m.inner.PowerOn()
}

func (m *meter) Len() int     { return m.inner.Len() }
func (m *meter) PowerOff()    { m.inner.PowerOff() }
func (m *meter) Close() error { return m.inner.Close() }

// maxTraceSpans bounds the trace file; the metrics use every span.
const maxTraceSpans = 50000

// writeTrace writes the first maxTraceSpans spans at or after from, in start
// order, one JSON object per line.
func writeTrace(path string, spans []span, from int64) error {
	sort.Slice(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
	i := sort.Search(len(spans), func(i int) bool { return spans[i].start >= from })
	spans = spans[i:]
	if len(spans) > maxTraceSpans {
		spans = spans[:maxTraceSpans]
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		parent := ""
		if s.layer != layerClient || s.op != opTxn {
			parentLayer := s.layer - 1
			if s.layer == layerClient {
				parentLayer = layerClient // a call's parent is its transaction span
			}
			parent = layerNames[parentLayer] + ":" + opNames[s.parent]
		}
		rec := struct {
			Txn    uint64 `json:"txn"`
			Layer  string `json:"layer"`
			Op     string `json:"op"`
			Start  int64  `json:"start_ns"`
			End    int64  `json:"end_ns"`
			Parent string `json:"parent"`
		}{s.txn, layerNames[s.layer], opNames[s.op], s.start, s.end, parent}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
