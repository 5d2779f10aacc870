// Package machine simulates the multiprocessor-cache database machine of the
// paper: a back-end controller, a pool of query processors, a page-addressable
// disk cache, and data disks (conventional or parallel-access), executing a
// generated transaction load under page-level locking.
//
// Recovery architectures plug in through the Model interface; the bare
// machine (no recovery) is the zero Model. The simulator reports the paper's
// two metrics — execution time per page and transaction completion time —
// plus device utilizations and cache statistics.
package machine

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/workload"
)

// The paper's device calibration: VAX 11/750-class query processors and
// IBM 3350 data disks (disk.Default3350Params) of 4 KB pages.
const (
	CPUPerPage    = 45 * sim.Millisecond // process one data page
	CPUPerUpdate  = 15 * sim.Millisecond // additional time to build an updated page
	PagesPerTrack = 4                    // 4 KB pages per track
	TracksPerCyl  = 12                   // tracks (heads) per cylinder
)

// Config describes one simulated database machine and its workload.
type Config struct {
	// Machine structure (paper defaults: 25 QPs, 100 frames, 2 data disks).
	QueryProcessors int
	CacheFrames     int
	DataDisks       int
	ParallelDisks   bool // SURE/DBC parallel-access data disks

	// Workload.
	Workload workload.Config
	NumTxns  int // transactions in the load
	MPL      int // multiprogramming level (concurrently active transactions)
	Seed     int64

	// ProfileEvery, when positive, samples a utilization timeline at the
	// given virtual-time interval; the result carries it as Profile.
	ProfileEvery sim.Time

	// AbortFrac is the fraction of transactions that abort partway through
	// (0 in the paper's experiments). Aborting transactions stop after a
	// random prefix of their reference string and perform the recovery
	// model's undo actions — exercising the "use of recovery data" cost the
	// paper discusses but does not measure.
	AbortFrac float64
}

// DefaultConfig is the paper's standard machine: 25 query processors, 100
// 4 KB cache frames, 2 IBM-3350-class data disks, and the 1..250-page,
// 20 %-update transaction load over a 24,000-page database.
func DefaultConfig() Config {
	return Config{
		QueryProcessors: 25,
		CacheFrames:     100,
		DataDisks:       2,
		Workload:        workload.DefaultConfig(24000),
		NumTxns:         40,
		MPL:             3,
		Seed:            1985,
	}
}

// Validate reports an error for inconsistent configurations.
func (c Config) Validate() error {
	switch {
	case c.QueryProcessors <= 0:
		return fmt.Errorf("machine: need at least one query processor")
	case c.CacheFrames <= 0:
		return fmt.Errorf("machine: need at least one cache frame")
	case c.DataDisks <= 0:
		return fmt.Errorf("machine: need at least one data disk")
	case c.MPL <= 0:
		return fmt.Errorf("machine: MPL must be positive")
	case c.NumTxns <= 0:
		return fmt.Errorf("machine: no transactions to run")
	case c.AbortFrac < 0 || c.AbortFrac > 1:
		return fmt.Errorf("machine: abort fraction %v out of range", c.AbortFrac)
	}
	return c.Workload.Validate()
}

// prefetchWindow caps the cache frames a single transaction may hold
// (in-flight reads + unprocessed + unwritten updates): its share of the
// cache, CacheFrames / MPL.
func (c Config) prefetchWindow() int {
	w := c.CacheFrames / c.MPL
	if w < 1 {
		w = 1
	}
	return w
}

// Result aggregates the statistics of one simulation run.
type Result struct {
	Name           string
	SimTime        sim.Time
	PagesProcessed int64 // pages read & processed plus updated pages written
	Committed      int
	Aborted        int
	LockWaits      int64

	// The paper's two metrics, in milliseconds.
	ExecPerPageMs    float64
	MeanCompletionMs float64

	// Completion-time percentiles from the metrics histogram (ms).
	CompletionP50Ms float64
	CompletionP95Ms float64
	CompletionP99Ms float64

	// Waits is the mean per-committed-transaction wait-time breakdown.
	Waits WaitBreakdown

	QPUtil           float64
	DataDiskUtil     float64 // mean across data disks
	DataDiskUtils    []float64
	DataDiskAccesses int64
	CacheHitRatio    float64 // residency-tracker hit ratio on data reads
	MeanBlocked      float64 // updated pages waiting for log records
	MaxBlocked       float64
	MeanCacheUsed    float64

	// Extra carries model-specific statistics (log-disk utilization,
	// page-table disk utilization, ...).
	Extra map[string]float64

	// Profile is the sampled utilization timeline (nil unless
	// Config.ProfileEvery was set).
	Profile *Profile
}

// WaitBreakdown is the mean per-transaction wait-time decomposition, in
// milliseconds of virtual time. Waits on concurrent requests overlap, so
// the components may sum to more than the mean completion time; each
// answers "how long did this kind of request take in aggregate".
type WaitBreakdown struct {
	LockMs     float64 // admission until the static lock set was granted
	QPMs       float64 // query-processor queueing across all plan entries
	DiskMs     float64 // data-disk queue + service across reads and writes
	RecoveryMs float64 // address resolution + blocked waiting for recovery data
	CommitMs   float64 // reads done until the commit/abort hook finished
}

// String renders the headline metrics.
func (r Result) String() string {
	return fmt.Sprintf("%s: exec/page=%.1fms completion=%.1fms qp=%.2f disk=%.2f",
		r.Name, r.ExecPerPageMs, r.MeanCompletionMs, r.QPUtil, r.DataDiskUtil)
}
