package engine

import (
	"encoding/binary"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/pagestore"
	"repro/internal/pagestore/filestore"
)

// fileCounts is what a durable run costs its stable stores: fsyncs, and the
// bytes that reach the files — log records as appended (33 bytes of
// framing each, plus the payload) and each fold's page file.
type fileCounts struct{ syncs, bytes int64 }

// fileCounter counts one file store's fsyncs and file bytes through its
// FileHook. The log's bytes are the store's count of the records appended,
// not wal.log's size, which runs ahead of them. While deferring it answers
// fsyncs with FileSkipSync, as a preload does, and counts nothing.
type fileCounter struct {
	dir       string
	be        *filestore.Backend
	deferring bool
	logged    int64 // the log's record bytes at the last append
	fileCounts
}

func (c *fileCounter) hook(op pagestore.FileOp, _ string, _ int64) pagestore.FileFault {
	switch op {
	case pagestore.FileSync: // the record it syncs is in wal.log already
		n := c.be.LogBytes()
		if !c.deferring {
			c.syncs++
			c.bytes += n - c.logged
		}
		c.logged = n
		if c.deferring {
			return pagestore.FileSkipSync
		}
	case pagestore.FileTruncate: // data.db is the fold just renamed in
		if fi, err := os.Stat(filepath.Join(c.dir, "data.db")); err == nil && !c.deferring {
			c.bytes += fi.Size()
		}
		c.logged = 0
	}
	return pagestore.FileOK
}

// durableRun builds arch through Build on file stores under dir with a
// 64-page WAL pool, loads pages size-byte images that open with an 8-byte
// balance, with deferred fsyncs (one real fsync then makes the preload
// durable), and runs txns seeded transfers in one session: Begin, Read,
// Read, Write, Write, Commit between two distinct random pages. It returns
// what the transfers cost the files.
func durableRun(t *testing.T, arch, dir string, pages, txns, size int) fileCounts {
	t.Helper()
	var counters []*fileCounter
	e, stores, err := Build(arch, 64, func(role string, pageSize int) (*pagestore.Store, error) {
		s, err := filestore.Open(filepath.Join(dir, role), pageSize)
		if err != nil {
			return nil, err
		}
		c := &fileCounter{dir: filepath.Join(dir, role), be: s.Backend().(*filestore.Backend), deferring: true}
		s.SetFileHook(c.hook)
		counters = append(counters, c)
		return s, nil
	})
	t.Cleanup(func() {
		for _, s := range stores {
			s.Close()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	bal := make([]byte, size)
	binary.BigEndian.PutUint64(bal, 1000)
	for p := int64(0); p < int64(pages); p++ {
		if err := e.Load(p, bal); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range counters {
		c.deferring = false
	}
	// Page 0 once more, with a real fsync, makes the whole preload durable.
	if err := e.Load(0, bal); err != nil {
		t.Fatal(err)
	}
	for _, c := range counters {
		c.fileCounts = fileCounts{}
	}
	rng := rand.New(rand.NewSource(1985))
	from, to := make([]byte, size), make([]byte, size)
	for i := 0; i < txns; i++ {
		a := int64(rng.Intn(pages))
		b := (a + 1 + int64(rng.Intn(pages-1))) % int64(pages)
		tx, err := e.Begin()
		if err != nil {
			t.Fatal(err)
		}
		x, err := tx.Read(a)
		if err != nil {
			t.Fatal(err)
		}
		y, err := tx.Read(b)
		if err != nil {
			t.Fatal(err)
		}
		binary.BigEndian.PutUint64(from, binary.BigEndian.Uint64(x)-1)
		binary.BigEndian.PutUint64(to, binary.BigEndian.Uint64(y)+1)
		if err := tx.Write(a, from); err != nil {
			t.Fatal(err)
		}
		if err := tx.Write(b, to); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	var sum fileCounts
	for _, c := range counters {
		sum.syncs += c.syncs
		sum.bytes += c.bytes
	}
	return sum
}

// TestSyncsPerCommit pins what a durable commit costs each architecture:
// fsyncs and file bytes per transfer on file-backed stores, in the
// durable-commit workload's shape (1,024 pages, a 64-page WAL pool) with
// one session, on 8-byte images and on whole 4 KiB pages. Every Put and
// Delete of a file store is one append and one fsync, so the syncs are the
// kernel's stable writes; DESIGN §10 says where each architecture's come
// from. The counts are exact and repeat from run to run, which each
// architecture checks by running each size twice. Lowering one (one fsync
// per commit, each architecture at its floor) re-pins it here.
func TestSyncsPerCommit(t *testing.T) {
	const pages, txns = 1024, 300
	want := map[int]map[string]fileCounts{ // per 300 transfers
		8: {
			"wal-1stream":  {789, 34824},    // 2.63 syncs, 116.1 B per commit
			"wal-3streams": {1123, 47265},   // 3.74, 157.6
			"shadow":       {2400, 5272672}, // 8, 17,575.6
			"ow-noundo":    {1800, 83400},   // 6, 278
			"ow-noredo":    {2100, 102900},  // 7, 343
			"verselect":    {900, 36900},    // 3, 123
			"difffile":     {300, 33600},    // 1, 112
		},
		4096: { // the bytes include folds, each a data.db of over 4 MiB
			"wal-1stream":  {789, 6252760},   // 2.63 syncs, 20,842.5 B per commit
			"wal-3streams": {1123, 6265201},  // 3.74, 20,884.0
			"shadow":       {2400, 37312008}, // 8, 124,373.4
			"ow-noundo":    {1800, 27010640}, // 6, 90,035.5
			"ow-noredo":    {2100, 27009620}, // 7, 90,032.1
			"verselect":    {900, 13391332},  // 3, 44,637.8
			"difffile":     {900, 14016584},  // 3, 46,721.9: a run of 8,255 B is 3 chunks
		},
	}
	for _, arch := range Architectures() {
		t.Run(arch, func(t *testing.T) {
			for _, size := range []int{8, 4096} {
				first := durableRun(t, arch, t.TempDir(), pages, txns, size)
				second := durableRun(t, arch, t.TempDir(), pages, txns, size)
				t.Logf("%-12s %4d B images: %.2f syncs and %.1f file B per commit", arch, size,
					float64(first.syncs)/txns, float64(first.bytes)/txns)
				if first != second {
					t.Fatalf("%d B images: two runs counted %+v and %+v; the counts must repeat", size, first, second)
				}
				if first != want[size][arch] {
					t.Errorf("%d transfers of %d B images cost %d syncs and %d file bytes, pinned %d and %d",
						txns, size, first.syncs, first.bytes, want[size][arch].syncs, want[size][arch].bytes)
				}
			}
		})
	}
}
