package main

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/server"
)

// metricDef names one metric. BENCHMARK.json repeats these tables and
// bench_test.go checks that the two agree.
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64 // end-to-end only: the worsening that counts as a regression
}

// endToEnd are the metrics a user of the system sees. Every workload reports
// every one of them, so each is defined where no file is written and where no
// wire is crossed.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"txn_per_s", "1/s", "higher", 0.25},
	{"txn_us_p50", "us", "lower", 0.25},
	{"write_amp", "B/B", "lower", 0.05},
	{"recover_us_per_txn", "us", "lower", 0.25},
}

// archMetrics are reported once per architecture by the traced run.
var archMetrics = []metricDef{
	{"txn_us", "us", "lower", 0},
	{"sync_per_commit", "count", "lower", 0},
	{"bytes_per_commit", "B", "lower", 0},
	{"recover_ms", "ms", "lower", 0},
	{"durable_txn_per_s", "1/s", "higher", 0},
}

// perLayer are the traced run's metrics, layer by layer from the outside in.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"client.txn_us_p95", "us", "lower", 0},
		{"client.txn_us_p99", "us", "lower", 0},
		{"client.self_us_per_txn", "us", "lower", 0},
		{"server.wire_us_per_txn", "us", "lower", 0},
		{"server.service_us_per_txn", "us", "lower", 0},
		{"server.self_us_per_txn", "us", "lower", 0},
		{"server.roundtrips_per_commit", "count", "lower", 0},
		{"lockmgr.wait_us_per_txn", "us", "lower", 0},
		{"lockmgr.deadlock_per_commit", "count", "lower", 0},
		{"lockmgr.abort_share", "share", "lower", 0},
		{"guard.wait_us_per_txn", "us", "lower", 0},
		{"guard.hold_us_per_txn", "us", "lower", 0},
		{"guard.self_us_per_txn", "us", "lower", 0},
		{"guard.wait_share", "share", "lower", 0},
		{"guard.commit_hold_us_p50", "us", "lower", 0},
		{"guard.commit_wait_us_p99", "us", "lower", 0},
		{"kernel.self_us_per_txn", "us", "lower", 0},
		{"kernel.commit_us_p50", "us", "lower", 0},
		{"kernel.store_puts_per_commit", "count", "lower", 0},
		{"kernel.store_gets_per_commit", "count", "lower", 0},
		{"store.self_us_per_txn", "us", "lower", 0},
		{"store.put_us_p50", "us", "lower", 0},
		{"store.put_us_p99", "us", "lower", 0},
		{"store.bytes_per_commit", "B", "lower", 0},
		{"filestore.append_per_commit", "count", "lower", 0},
		{"filestore.sync_per_commit", "count", "lower", 0},
		{"filestore.bytes_per_commit", "B", "lower", 0},
		{"filestore.fold_per_kcommit", "count", "lower", 0},
		{"filestore.fold_ms_p50", "ms", "lower", 0},
		{"filestore.fold_stall_share", "share", "lower", 0},
		{"recover.total_ms", "ms", "lower", 0},
		{"recover.poweron_ms", "ms", "lower", 0},
		{"recover.kernel_ms", "ms", "lower", 0},
		{"recover.store_reads", "count", "lower", 0},
		{"recover.store_writes", "count", "lower", 0},
		{"recover.log_records", "count", "lower", 0},
	}
	for _, arch := range server.Architectures() {
		for _, m := range archMetrics {
			defs = append(defs, metricDef{"arch." + arch + "." + m.name, m.unit, m.better, 0})
		}
	}
	return append(defs,
		metricDef{"trace.overhead_share", "share", "lower", 0},
		metricDef{"trace.self_sum_share", "share", "higher", 0},
		metricDef{"mem.heap_mb_end", "MiB", "lower", 0},
		metricDef{"device.fsync_us_p50", "us", "lower", 0},
	)
}()

// quantile returns the exact q-quantile of sorted, by the nearest-rank rule.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// median returns the median of sorted.
func median(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// sumUs adds nanosecond samples up, in microseconds.
func sumUs(ns []int64) float64 {
	var sum int64
	for _, v := range ns {
		sum += v
	}
	return float64(sum) / 1000
}

// sortedUs converts nanosecond samples to sorted microseconds.
func sortedUs(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1000
	}
	sort.Float64s(out)
	return out
}

// endToEndOf reduces one repeat to the end-to-end metrics.
func endToEndOf(r *repeatResult) map[string]float64 {
	lat := sortedUs(r.lat)
	return map[string]float64{
		"setup_s":            r.setupS,
		"txn_per_s":          ratio(float64(r.commits), r.windowS),
		"txn_us_p50":         quantile(lat, 0.50),
		"write_amp":          ratio(float64(r.counts.PutBytes), float64(r.userBytes)),
		"recover_us_per_txn": ratio(r.recoverMs*1000, float64(r.loggedTxns)),
	}
}

// layersOf reduces one traced repeat to the per-layer metrics that come from
// the workload itself. Self times telescope: each layer's time minus the
// time of the layer below it, so they add up to the transaction time.
func layersOf(r *repeatResult, tcp bool) map[string]float64 {
	n := float64(r.commits)
	inWindow := func(s span) bool { return s.start >= r.t1 && s.end <= r.t2 }

	var txnUs, callUs, calls float64
	var kernelCommit, puts, folds []int64
	var foldNs float64
	var rec struct{ poweron, reads, writes float64 }
	for _, s := range r.spans {
		switch {
		case s.start >= r.crashAt && s.end <= r.recoverAt:
			if s.layer == layerStore {
				switch s.op {
				case opPowerOn:
					rec.poweron += float64(s.dur()) / 1e6
				case opGet:
					rec.reads++
				case opPut, opDel:
					rec.writes++
				}
			}
		case s.layer == layerStore && s.op == opFold:
			folds = append(folds, s.dur())
			if inWindow(s) {
				foldNs += float64(s.dur())
			}
		case !inWindow(s):
		case s.layer == layerClient && s.op == opTxn:
			txnUs += float64(s.dur()) / 1000
		case s.layer == layerClient:
			callUs += float64(s.dur()) / 1000
			calls++
		case s.layer == layerKernel && s.op == opCommit:
			kernelCommit = append(kernelCommit, s.dur())
		case s.layer == layerStore && s.op == opPut:
			puts = append(puts, s.dur())
		}
	}
	s := r.sums
	wire := 0.0
	if tcp {
		wire = callUs - s.serviceAll
	}
	lockWait := s.serviceRW - s.guardWaitRW - s.guardHoldRW
	serverSelf := (s.serviceAll - s.serviceRW) - (s.guardWaitAll - s.guardWaitRW) - (s.guardHoldAll - s.guardHoldRW)
	selfSum := (txnUs - callUs) + wire + serverSelf + lockWait + s.guardWaitAll + s.guardHoldAll
	putUs, commitUs, foldUs, latUs := sortedUs(puts), sortedUs(kernelCommit), sortedUs(folds), sortedUs(r.lat)
	c := r.counts
	return map[string]float64{
		"client.txn_us_p95":            quantile(latUs, 0.95),
		"client.txn_us_p99":            quantile(latUs, 0.99),
		"client.self_us_per_txn":       ratio(txnUs-callUs, n),
		"server.wire_us_per_txn":       ratio(wire, n),
		"server.service_us_per_txn":    ratio(s.serviceAll, n),
		"server.self_us_per_txn":       ratio(serverSelf, n),
		"server.roundtrips_per_commit": ratio(calls, n),
		"lockmgr.wait_us_per_txn":      ratio(lockWait, n),
		"lockmgr.deadlock_per_commit":  ratio(float64(r.deadlocks), n),
		"lockmgr.abort_share":          ratio(float64(r.deadlocks+r.busies), float64(r.attempts)),
		"guard.wait_us_per_txn":        ratio(s.guardWaitAll, n),
		"guard.hold_us_per_txn":        ratio(s.guardHoldAll, n),
		"guard.self_us_per_txn":        ratio(s.guardHoldAll-s.kernel, n),
		"guard.wait_share":             ratio(s.guardWaitAll, s.guardWaitAll+s.guardHoldAll),
		"guard.commit_hold_us_p50":     r.commitHoldP50Us,
		"guard.commit_wait_us_p99":     r.commitWaitP99Us,
		"kernel.self_us_per_txn":       ratio(s.kernel-s.store, n),
		"kernel.commit_us_p50":         quantile(commitUs, 0.50),
		"kernel.store_puts_per_commit": ratio(float64(c.Puts+c.Dels), n),
		"kernel.store_gets_per_commit": ratio(float64(c.Gets), n),
		"store.self_us_per_txn":        ratio(s.store, n),
		"store.put_us_p50":             quantile(putUs, 0.50),
		"store.put_us_p99":             quantile(putUs, 0.99),
		"store.bytes_per_commit":       ratio(float64(c.PutBytes), n),
		"filestore.append_per_commit":  ratio(float64(c.Appends), n),
		"filestore.sync_per_commit":    ratio(float64(c.Syncs), n),
		"filestore.bytes_per_commit":   ratio(float64(c.FileBytes), n),
		"filestore.fold_per_kcommit":   ratio(float64(c.Folds)*1000, n),
		"filestore.fold_ms_p50":        quantile(foldUs, 0.50) / 1000,
		"filestore.fold_stall_share":   ratio(foldNs/1e9, r.windowS),
		"recover.total_ms":             r.recoverMs,
		"recover.poweron_ms":           rec.poweron,
		"recover.kernel_ms":            r.recoverMs - rec.poweron,
		"recover.store_reads":          rec.reads,
		"recover.store_writes":         rec.writes,
		"recover.log_records":          float64(r.logRecords),
		"trace.self_sum_share":         ratio(selfSum, sumUs(r.lat)),
		"mem.heap_mb_end":              r.heapMB,
	}
}

// checkNames reports a metric the definitions name and the run did not
// produce, or the reverse.
func checkNames(defs []metricDef, got map[string]float64) error {
	var problems []string
	seen := map[string]bool{}
	for _, d := range defs {
		seen[d.name] = true
		if _, ok := got[d.name]; !ok {
			problems = append(problems, "missing "+d.name)
		}
	}
	for name := range got {
		if !seen[name] {
			problems = append(problems, "undeclared "+name)
		}
	}
	if len(problems) > 0 {
		sort.Strings(problems)
		return fmt.Errorf("metric names: %s", strings.Join(problems, ", "))
	}
	return nil
}
