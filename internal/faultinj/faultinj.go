// Package faultinj is the deterministic fault-injection and recovery-audit
// harness for the functional recovery engines. Where internal/engine's crash tests cut power at a handful of
// hand-picked mutations, this package enumerates crash points
// systematically:
//
//   - every mutation (page write or delete) a recovery engine makes to
//     stable storage during a scripted workload, including the WAL engine's
//     separate log store;
//   - on file-backed stores, every file operation (append, fsync, fold
//     page-write, truncate) instead, with a torn write at appends and page
//     writes and a lost fsync at syncs;
//   - every stable-storage operation (reads included) during restart
//     recovery itself, so recovery is re-crashed mid-flight and rerun.
//
// For each crash point the harness runs crash → recover → audit. The audits
// are the paper's own claims, machine-checked: atomicity (no partial
// transaction visible after restart; an in-doubt commit is applied all or
// nothing), durability (every committed write set present, page checksums
// intact), idempotence (recovery crashed partway and rerun, then rerun
// again on its own output, converges to the same state), and liveness (the
// recovered engine accepts new transactions).
//
// Everything is seeded and deterministic: two sweeps with the same options
// produce byte-identical reports. See docs/FAULTS.md and cmd/crashsweep.
package faultinj

import "repro/internal/pagestore"

// mutations sums the stable mutations (writes and deletes) the stores have
// made so far; a probe run's count is the difference across the run. Over
// the WAL engine's data and log stores together it counts their combined
// sequence, the one pagestore.CrashAtMutation counts.
func mutations(stores []*pagestore.Store) int64 {
	var n int64
	for _, s := range stores {
		_, w := s.Stats()
		n += w
	}
	return n
}
