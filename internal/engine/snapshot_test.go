package engine

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/obs"
	"repro/internal/pagestore"
	"repro/internal/pagestore/filestore"
)

// snapWorkload commits n transactions over pages, each bumping one page's
// counter, and returns the committed values.
func snapWorkload(t *testing.T, e *Engine, pages int, n int, seed int64) []int64 {
	t.Helper()
	model := make([]int64, pages)
	rng := seed
	next := func(m int64) int64 {
		rng = rng*6364136223846793005 + 1442695040888963407
		v := rng >> 33
		if v < 0 {
			v = -v
		}
		return v % m
	}
	for i := 0; i < n; i++ {
		tx, err := e.Begin()
		if err != nil {
			t.Fatal(err)
		}
		p := next(int64(pages))
		cur, err := tx.Read(p)
		if err != nil {
			t.Fatal(err)
		}
		v := dec(cur) + 1
		if err := tx.Write(p, enc(v)); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		model[p] = v
	}
	return model
}

func checkCommitted(t *testing.T, e *Engine, model []int64, what string) {
	t.Helper()
	for p := range model {
		got, err := e.ReadCommitted(int64(p))
		if err != nil {
			t.Fatalf("%s: page %d: %v", what, p, err)
		}
		if dec(got) != model[p] {
			t.Fatalf("%s: page %d = %d, want %d", what, p, dec(got), model[p])
		}
	}
}

// TestSnapshotRestoreRoundTrip proves the acceptance property on every
// architecture: a full + incremental backup chain restored into a fresh
// engine reproduces the committed state of the snapshot instant exactly,
// even though the source engine diverged afterwards.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	const pages = 8
	for _, cc := range crashCases() {
		t.Run(cc.name, func(t *testing.T) {
			e, _ := cc.build(t)
			for p := int64(0); p < pages; p++ {
				if err := e.Load(p, enc(0)); err != nil {
					t.Fatal(err)
				}
			}
			snapWorkload(t, e, pages, 30, 1)
			var full bytes.Buffer
			base, err := e.Snapshot(&full)
			if err != nil {
				t.Fatal(err)
			}
			model := snapWorkload(t, e, pages, 20, 2)
			var incr bytes.Buffer
			incrMan, err := e.SnapshotSince(&incr, base)
			if err != nil {
				t.Fatal(err)
			}
			snapWorkload(t, e, pages, 15, 3) // diverge past the snapshot

			// The chain's manifests, recomputed from the archives alone,
			// must match what SnapshotSince reported (crc included).
			folded, err := ArchiveManifests(bytes.NewReader(full.Bytes()), bytes.NewReader(incr.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if len(folded) != len(incrMan) {
				t.Fatalf("chain folds to %d manifests, snapshot returned %d", len(folded), len(incrMan))
			}
			for i := range folded {
				if len(folded[i]) != len(incrMan[i]) {
					t.Fatalf("store %d: folded manifest has %d pages, want %d",
						i, len(folded[i]), len(incrMan[i]))
				}
				for id, meta := range incrMan[i] {
					if folded[i][id] != meta {
						t.Fatalf("store %d page %d: folded meta %+v, want %+v",
							i, id, folded[i][id], meta)
					}
				}
			}

			fresh, _ := cc.build(t)
			if err := fresh.Restore(bytes.NewReader(full.Bytes()), bytes.NewReader(incr.Bytes())); err != nil {
				t.Fatal(err)
			}
			checkCommitted(t, fresh, model, "restored engine")
			// The restored engine is live: it accepts and commits new work.
			snapWorkload(t, fresh, pages, 5, 4)
		})
	}
}

func TestRestoreRejectsBadChains(t *testing.T) {
	e, _ := crashCases()[0].build(t)
	if err := e.Load(1, enc(7)); err != nil {
		t.Fatal(err)
	}
	var full bytes.Buffer
	base, err := e.Snapshot(&full)
	if err != nil {
		t.Fatal(err)
	}
	var incr bytes.Buffer
	if _, err := e.SnapshotSince(&incr, base); err != nil {
		t.Fatal(err)
	}
	// An incremental cannot head a chain.
	if err := e.Restore(bytes.NewReader(incr.Bytes())); err == nil {
		t.Fatal("restore accepted an incremental-first chain")
	}
	// A second full cannot continue one.
	if err := e.Restore(bytes.NewReader(full.Bytes()), bytes.NewReader(full.Bytes())); err == nil {
		t.Fatal("restore accepted full-after-full")
	}
	// Garbage is rejected whole.
	if err := e.Restore(bytes.NewReader([]byte("not an archive"))); err == nil {
		t.Fatal("restore accepted garbage")
	}
	// The engine still works after the rejected attempts.
	if err := e.Restore(bytes.NewReader(full.Bytes())); err != nil {
		t.Fatal(err)
	}
	got, err := e.ReadCommitted(1)
	if err != nil || dec(got) != 7 {
		t.Fatalf("after restore: %v %v", got, err)
	}
}

// TestRestoreRejectsKindMismatch: every blob of an archive must be of the
// archive's kind. A full archive relabelled from an incremental one would
// otherwise patch a fresh engine instead of replacing its state, and an
// incremental archive holding full blobs would replace a chain's state.
func TestRestoreRejectsKindMismatch(t *testing.T) {
	const pages = 4
	build := crashCases()[2].build // shadow
	e, _ := build(t)
	for p := int64(0); p < pages; p++ {
		if err := e.Load(p, enc(0)); err != nil {
			t.Fatal(err)
		}
	}
	snapWorkload(t, e, pages, 10, 1)
	var full bytes.Buffer
	base, err := e.Snapshot(&full)
	if err != nil {
		t.Fatal(err)
	}
	snapWorkload(t, e, pages, 10, 2)
	var incr bytes.Buffer
	if _, err := e.SnapshotSince(&incr, base); err != nil {
		t.Fatal(err)
	}
	relabel := func(archive []byte, kind byte) []byte {
		out := append([]byte{}, archive...)
		out[len(archiveMagic)] = kind
		return out
	}
	chains := map[string][][]byte{
		"incremental blobs in a full archive":  {relabel(incr.Bytes(), archiveFull)},
		"full blobs in an incremental archive": {full.Bytes(), relabel(full.Bytes(), archiveIncr)},
	}
	for name, chain := range chains {
		readers := func() []io.Reader {
			var rs []io.Reader
			for _, a := range chain {
				rs = append(rs, bytes.NewReader(a))
			}
			return rs
		}
		if _, err := ArchiveManifests(readers()...); err == nil {
			t.Errorf("%s: ArchiveManifests accepted the chain", name)
		}
		fresh, _ := build(t)
		if err := fresh.Restore(readers()...); err == nil {
			t.Errorf("%s: Restore accepted the chain", name)
		}
	}
}

// TestReadArchiveBoundsAllocation: an archive's store count and blob
// lengths are untrusted. A short archive that claims 2^26 stores, or a
// blob of 2^30 bytes, must fail without allocating what it claims.
func TestReadArchiveBoundsAllocation(t *testing.T) {
	header := func(stores uint32) []byte {
		b := append([]byte{}, archiveMagic[:]...)
		b = append(b, archiveFull)
		return binary.BigEndian.AppendUint32(b, stores)
	}
	cases := map[string][]byte{
		"2^26 stores":      header(1 << 26),
		"2^30-byte blob":   binary.BigEndian.AppendUint32(header(1), 1<<30),
		"2^32-1-byte blob": binary.BigEndian.AppendUint32(header(2), 1<<32-1),
	}
	for name, archive := range cases {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ArchiveManifests(bytes.NewReader(archive))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s: accepted a %d-byte archive", name, len(archive))
		}
		if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
			t.Fatalf("%s: allocated %d B for a %d-byte archive", name, n, len(archive))
		}
	}
}

// TestSnapshotJournalEvents checks the backup plane reports itself through
// the structured recovery journal.
func TestSnapshotJournalEvents(t *testing.T) {
	e, _ := crashCases()[0].build(t) // wal journals
	j := obs.NewJournal()
	if err := e.Guard().SetJournal(j); err != nil {
		t.Fatal(err)
	}
	if err := e.Load(1, enc(1)); err != nil {
		t.Fatal(err)
	}
	var full bytes.Buffer
	base, err := e.Snapshot(&full)
	if err != nil {
		t.Fatal(err)
	}
	var incr bytes.Buffer
	if _, err := e.SnapshotSince(&incr, base); err != nil {
		t.Fatal(err)
	}
	if err := e.Restore(bytes.NewReader(full.Bytes()), bytes.NewReader(incr.Bytes())); err != nil {
		t.Fatal(err)
	}
	var events []string
	var notes []string
	for _, r := range j.Records() {
		if r.Event == "snapshot" || r.Event == "restore" {
			events = append(events, r.Event)
			notes = append(notes, r.Note)
		}
	}
	if len(events) != 3 || events[0] != "snapshot" || events[1] != "snapshot" || events[2] != "restore" {
		t.Fatalf("journal events = %v, want [snapshot snapshot restore]", events)
	}
	if notes[0] != "full" || notes[1] != "incremental" {
		t.Fatalf("snapshot notes = %v, want [full incremental ...]", notes[:2])
	}
}

// TestSnapshotRestoreFileBacked proves a restore into a file-backed engine
// is durable: the restored bytes survive closing the store and reopening
// the directory cold, and the page images are byte-identical to the
// source's committed pages.
func TestSnapshotRestoreFileBacked(t *testing.T) {
	const pages = 6
	dirA := filepath.Join(t.TempDir(), "a")
	storeA, err := filestore.Open(dirA, 4096)
	if err != nil {
		t.Fatal(err)
	}
	defer storeA.Close()
	eA, err := NewShadowOn(storeA)
	if err != nil {
		t.Fatal(err)
	}
	for p := int64(0); p < pages; p++ {
		if err := eA.Load(p, enc(0)); err != nil {
			t.Fatal(err)
		}
	}
	model := snapWorkload(t, eA, pages, 40, 9)
	var snap bytes.Buffer
	if _, err := eA.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}

	dirB := filepath.Join(t.TempDir(), "b")
	storeB, err := filestore.Open(dirB, 4096)
	if err != nil {
		t.Fatal(err)
	}
	eB, err := NewShadowOn(storeB)
	if err != nil {
		t.Fatal(err)
	}
	if err := eB.Restore(bytes.NewReader(snap.Bytes())); err != nil {
		t.Fatal(err)
	}
	checkCommitted(t, eB, model, "file-backed restore")

	// Durability proof at the store layer: the restored bytes survive
	// closing the store and reopening the directory cold, and the
	// crc-verified per-page manifest is identical to the source store's.
	// (Kernel constructors write fresh metadata, so cold process restart
	// is a store-layer property, not an engine-layer one.)
	manifest := func(s *pagestore.Store) pagestore.Manifest {
		var buf bytes.Buffer
		m, err := s.WriteSnapshot(&buf, nil)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	wantMan := manifest(storeA)
	if err := storeB.Close(); err != nil {
		t.Fatal(err)
	}
	storeC, err := filestore.Open(dirB, 4096)
	if err != nil {
		t.Fatal(err)
	}
	defer storeC.Close()
	gotMan := manifest(storeC)
	if len(gotMan) != len(wantMan) {
		t.Fatalf("cold reopen: %d pages, want %d", len(gotMan), len(wantMan))
	}
	for id, meta := range wantMan {
		if gotMan[id] != meta {
			t.Fatalf("cold reopen: page %d meta %+v, want %+v (crc mismatch = bytes diverged)",
				id, gotMan[id], meta)
		}
	}
}

// TestSnapshotRefusesCrashedStore: the backup plane must not read through
// a power failure.
func TestSnapshotRefusesCrashedStore(t *testing.T) {
	e, store := crashCases()[2].build(t) // shadow: single store
	if err := e.Load(1, enc(1)); err != nil {
		t.Fatal(err)
	}
	// Cut the store's power at its next mutation.
	store.SetFaultHook(pagestore.CrashAtMutation(1))
	if err := store.Write(99, []byte("x"), 0); !errors.Is(err, pagestore.ErrCrashed) {
		t.Fatalf("injected crash: %v", err)
	}
	var buf bytes.Buffer
	if _, err := e.Snapshot(&buf); !errors.Is(err, pagestore.ErrCrashed) {
		t.Fatalf("snapshot of crashed store: %v", err)
	}
	e.Crash()
	store.SetFaultHook(nil)
	if err := e.Recover(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Snapshot(&buf); err != nil {
		t.Fatalf("snapshot after recovery: %v", err)
	}
}
