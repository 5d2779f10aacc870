package filestore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/pagestore"
)

func openT(t testing.TB, dir string, pageSize int, fold int64) *pagestore.Store {
	t.Helper()
	s, err := open(dir, pageSize, fold)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func backend(t testing.TB, s *pagestore.Store) *Backend {
	t.Helper()
	b, ok := s.Backend().(*Backend)
	if !ok {
		t.Fatalf("backend is %T, want *filestore.Backend", s.Backend())
	}
	return b
}

func TestRoundTripAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, 64, foldBytes)
	if err := s.Write(7, []byte("hello disk"), 42); err != nil {
		t.Fatal(err)
	}
	if err := s.Write(9, []byte("second"), 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(9); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// A fresh process: everything acknowledged must come back from the files.
	s2 := openT(t, dir, 64, foldBytes)
	got, ver, err := s2.Read(7)
	if err != nil || !bytes.Equal(got, []byte("hello disk")) || ver != 42 {
		t.Fatalf("after reopen: %q v%d %v", got, ver, err)
	}
	if ok, _ := s2.Exists(9); ok {
		t.Fatal("deleted page resurrected by reopen")
	}
}

func TestClosedStoreFails(t *testing.T) {
	s := openT(t, t.TempDir(), 64, foldBytes)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Write(1, []byte("x"), 0); !errors.Is(err, pagestore.ErrClosed) {
		t.Fatalf("write after close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

func TestFoldAndReplayHorizon(t *testing.T) {
	// A tiny fold threshold forces many folds; the fold horizon must keep
	// log replay from regressing folded pages, across both Reset and a
	// genuine reopen.
	dir := t.TempDir()
	s := openT(t, dir, 32, 256)
	for i := 0; i < 50; i++ {
		id := pagestore.PageID(i % 7)
		if err := s.Write(id, []byte{byte(i), byte(i >> 8)}, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if backend(t, s).Folds() == 0 {
		t.Fatal("no fold happened below a 256-byte threshold")
	}
	check := func(s *pagestore.Store) {
		t.Helper()
		for id := 0; id < 7; id++ {
			last := 49 - (49-id)%7 + 0 // latest i with i%7 == id
			for i := 49; i >= 0; i-- {
				if i%7 == id {
					last = i
					break
				}
			}
			got, ver, err := s.Read(pagestore.PageID(id))
			if err != nil {
				t.Fatal(err)
			}
			if got[0] != byte(last) || ver != uint64(last) {
				t.Fatalf("page %d = %v v%d, want value of write %d", id, got, ver, last)
			}
		}
	}
	if err := s.Reset(); err != nil { // power-cycle in place
		t.Fatal(err)
	}
	check(s)
	s.Close()
	s2 := openT(t, dir, 32, foldBytes)
	check(s2)
}

// hookAt returns a FileHook injecting fault f at the n-th file operation
// (counted over the store's lifetime), once.
func hookAt(n int64, f pagestore.FileFault) pagestore.FileHook {
	fired := false
	return func(op pagestore.FileOp, name string, seq int64) pagestore.FileFault {
		if !fired && seq == n {
			fired = true
			return f
		}
		return pagestore.FileOK
	}
}

func TestCrashBetweenWriteAndSync(t *testing.T) {
	// Cut power at the fsync of the second mutation: the first write is
	// acknowledged and must survive; the second was never acknowledged and
	// must be gone after power-on.
	s := openT(t, t.TempDir(), 64, foldBytes)
	if !s.SetFileHook(hookAt(4, pagestore.FileCrash)) { // ops: append(1) sync(2) append(3) sync(4)
		t.Fatal("file hook rejected")
	}
	if err := s.Write(1, []byte("keep"), 1); err != nil {
		t.Fatal(err)
	}
	err := s.Write(2, []byte("lose"), 1)
	if !errors.Is(err, pagestore.ErrCrashed) {
		t.Fatalf("write at lost sync: %v", err)
	}
	if !s.Crashed() {
		t.Fatal("store not crashed")
	}
	if err := s.Reset(); err != nil {
		t.Fatal(err)
	}
	if got, _, err := s.Read(1); err != nil || string(got) != "keep" {
		t.Fatalf("acknowledged write lost: %q %v", got, err)
	}
	if ok, _ := s.Exists(2); ok {
		t.Fatal("unacknowledged write survived")
	}
}

func TestTornWriteDetectedAndDiscarded(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, walName)
	s := openT(t, dir, 64, foldBytes)
	if err := s.Write(1, []byte("keep"), 1); err != nil {
		t.Fatal(err)
	}
	full := int64(walRecLen + len("keep"))
	if got := backend(t, s).LogBytes(); got != full {
		t.Fatalf("wal.log holds %d bytes of records, want %d", got, full)
	}
	s.SetFileHook(hookAt(3, pagestore.FileTorn)) // the second append
	if err := s.Write(2, []byte("torn!"), 1); !errors.Is(err, pagestore.ErrCrashed) {
		t.Fatalf("torn write: %v", err)
	}
	// The torn prefix is physically in the file.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if zero(raw[full:]) {
		t.Fatalf("wal.log has only zeros past %d bytes; expected a torn prefix there", full)
	}
	if err := s.Reset(); err != nil {
		t.Fatal(err)
	}
	if backend(t, s).TornDetected() == 0 {
		t.Fatal("torn tail not detected at power-on")
	}
	if got, _, err := s.Read(1); err != nil || string(got) != "keep" {
		t.Fatalf("acknowledged write lost: %q %v", got, err)
	}
	if ok, _ := s.Exists(2); ok {
		t.Fatal("torn write survived")
	}
	// The clean prefix is kept, and the torn bytes are zeros now.
	if got := backend(t, s).LogBytes(); got != full {
		t.Fatalf("wal.log holds %d bytes of records after power-on, want %d", got, full)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after[:full], raw[:full]) || !zero(after[full:]) {
		t.Fatalf("wal.log after power-on: the clean prefix changed, or bytes past it are not zero")
	}
}

func TestInteriorDamageIsCorrupt(t *testing.T) {
	// One flipped bit inside a complete, fsynced record is not a torn
	// tail: power-on must refuse with ErrCorrupt instead of truncating
	// the log there and silently dropping the records behind it.
	dir := t.TempDir()
	s := openT(t, dir, 64, foldBytes)
	for i, v := range []string{"first", "middle", "last"} {
		if err := s.Write(pagestore.PageID(i), []byte(v), 1); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(dir, walName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	first := walRecLen + len("first")
	raw[first+walHdrLen+2] ^= 0x01 // a byte of "middle"'s data
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.Reset(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("power-on over a damaged middle record: %v, want ErrCorrupt", err)
	}
	if fi, _ := os.Stat(path); fi.Size() != int64(len(raw)) {
		t.Fatalf("wal.log = %d bytes after refusing, want all %d kept", fi.Size(), len(raw))
	}
}

// endOfLogLog writes recs into a fresh store, one append each (a nil
// image is a delete), and returns wal.log's records and where the last
// two begin.
func endOfLogLog(t *testing.T, recs []struct {
	id   pagestore.PageID
	data []byte
}) (raw []byte, middle, last int) {
	t.Helper()
	dir := t.TempDir()
	s := openT(t, dir, 64, foldBytes)
	for i, r := range recs {
		middle, last = last, int(backend(t, s).LogBytes())
		var err error
		if r.data == nil {
			err = s.Delete(r.id)
		} else {
			err = s.Write(r.id, r.data, uint64(i+1))
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	n := backend(t, s).LogBytes()
	raw, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	return raw[:n], middle, last
}

// powerOnImage writes img as wal.log, with 64 zero bytes after it, into
// dir and powers a store on over it. It returns the store's pages, its
// torn-tail count and wal.log's bytes after power-on, or the error.
func powerOnImage(t *testing.T, dir string, img []byte) (pages string, torn int64, after []byte, err error) {
	t.Helper()
	path := filepath.Join(dir, walName)
	must(t, os.WriteFile(path, append(bytes.Clone(img), make([]byte, 64)...), 0o644))
	s, err := open(dir, 64, foldBytes)
	if err != nil {
		return "", 0, nil, err
	}
	defer s.Close()
	after, rerr := os.ReadFile(path)
	must(t, rerr)
	return pagesOf(t, s), backend(t, s).TornDetected(), after, nil
}

// TestEndOfLogRule pins how power-on finds the end of a log that zeros
// follow. Every strict prefix of the last record, zeros after it, is a
// torn tail: the records before it are kept, the prefix is zeroed, and
// one that holds a non-zero byte is counted. Every single flipped bit of
// the last whole record, and of the one before it, is ErrCorrupt: none
// may pass for a torn tail, which would drop an acknowledged record. The
// logs end in a put whose image holds zeros, and in a delete of page 0,
// whose header is its sequence number alone.
func TestEndOfLogRule(t *testing.T) {
	type rec = struct {
		id   pagestore.PageID
		data []byte
	}
	for _, tc := range []struct {
		name string
		recs []rec
	}{
		{"put", []rec{{0, []byte("first")}, {1, []byte("mid\x00dle")}, {2, []byte("la\x00\x00st")}}},
		{"delete", []rec{{0, []byte("first")}, {1, []byte("mid\x00dle")}, {0, nil}}},
		{"lone-delete", []rec{{0, nil}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			raw, middle, last := endOfLogLog(t, tc.recs)
			dir := t.TempDir()
			before, _, _, err := powerOnImage(t, dir, raw[:last])
			if err != nil {
				t.Fatal(err)
			}
			for k := 1; k < len(raw)-last; k++ {
				pages, torn, after, err := powerOnImage(t, dir, raw[:last+k])
				if err != nil {
					t.Fatalf("prefix of %d bytes: %v", k, err)
				}
				want := int64(1)
				if zero(raw[last : last+k]) {
					want = 0 // no different from no record at all
				}
				if torn != want {
					t.Errorf("prefix of %d bytes: %d torn tails counted, want %d", k, torn, want)
				}
				if pages != before || !bytes.Equal(after[:last], raw[:last]) || !zero(after[last:]) {
					t.Errorf("prefix of %d bytes: pages\n%s\nwant\n%s\nor the tail was not zeroed", k, pages, before)
				}
			}
			starts := []int{last}
			if last > 0 {
				starts = append(starts, middle)
			}
			for _, start := range starts {
				end := len(raw)
				if start == middle && last > 0 {
					end = last
				}
				for bit := start * 8; bit < end*8; bit++ {
					img := bytes.Clone(raw)
					img[bit/8] ^= 1 << (bit % 8)
					if _, _, _, err := powerOnImage(t, dir, img); !errors.Is(err, ErrCorrupt) {
						t.Errorf("bit %d of the record at offset %d flipped: %v, want ErrCorrupt", bit-start*8, start, err)
					}
				}
			}
		})
	}
}

// TestRecCRC checks the one-step crc of a record's op byte against the
// checksum of the same bytes taken whole.
func TestRecCRC(t *testing.T) {
	head := []byte("a record's bytes before its crc")
	for _, op := range []byte{opPut, opDel, 0, 0xff} {
		if got, want := recCRC(head, op), crc32.ChecksumIEEE(append(bytes.Clone(head), op)); got != want {
			t.Errorf("op %#x: %#x, want %#x", op, got, want)
		}
	}
}

// TestAppendsKeepLogSize: the log is extended growBytes at a time ahead
// of its records, so a run of appends between two extensions leaves
// wal.log's size unchanged, and the extension comes when a record would
// not fit.
func TestAppendsKeepLogSize(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, 4096, foldBytes)
	size := func() int64 {
		fi, err := os.Stat(filepath.Join(dir, walName))
		must(t, err)
		return fi.Size()
	}
	img := bytes.Repeat([]byte{7}, 4000)
	must(t, s.Write(0, img, 1))
	if got := size(); got != growBytes {
		t.Fatalf("wal.log is %d bytes after the first append, want %d", got, growBytes)
	}
	appends := 1
	for ; backend(t, s).LogBytes()+walRecLen+int64(len(img)) <= growBytes; appends++ {
		must(t, s.Write(pagestore.PageID(appends), img, 1))
		if got := size(); got != growBytes {
			t.Fatalf("append %d changed wal.log's size to %d, want %d", appends+1, got, growBytes)
		}
	}
	must(t, s.Write(0, img, 2))
	if got := size(); got != 2*growBytes {
		t.Fatalf("the append past %d appends left wal.log at %d bytes, want %d", appends, got, 2*growBytes)
	}
}

func TestLostSyncLosesOnlyUnacknowledged(t *testing.T) {
	s := openT(t, t.TempDir(), 64, foldBytes)
	if err := s.Write(1, []byte("keep"), 1); err != nil {
		t.Fatal(err)
	}
	s.SetFileHook(hookAt(4, pagestore.FileLostSync))
	if err := s.Write(2, []byte("lose"), 1); !errors.Is(err, pagestore.ErrCrashed) {
		t.Fatal("lost sync must fail the write")
	}
	if err := s.Reset(); err != nil {
		t.Fatal(err)
	}
	if ok, _ := s.Exists(2); ok {
		t.Fatal("write whose sync was lost survived")
	}
	if ok, _ := s.Exists(1); !ok {
		t.Fatal("synced write lost")
	}
}

func TestSkipSyncViolatesDurability(t *testing.T) {
	// The lying device: the fsync is acknowledged but skipped. The write
	// returns nil — and a later power cut loses it anyway. This is the
	// negative control proving the store can express (and the audits can
	// catch) a genuine durability violation; see faultinj's
	// TestFileSweepCatchesLyingSync for the audit side.
	s := openT(t, t.TempDir(), 64, foldBytes)
	fired := false
	s.SetFileHook(func(op pagestore.FileOp, name string, seq int64) pagestore.FileFault {
		if op == pagestore.FileSync && !fired {
			fired = true
			return pagestore.FileSkipSync
		}
		return pagestore.FileOK
	})
	if err := s.Write(1, []byte("acked"), 1); err != nil {
		t.Fatalf("skip-sync write must be (falsely) acknowledged: %v", err)
	}
	// Power cut via the page-level fault hook.
	s.SetFaultHook(pagestore.CrashAtMutation(1))
	if err := s.Write(2, []byte("x"), 1); !errors.Is(err, pagestore.ErrCrashed) {
		t.Fatal("injected crash expected")
	}
	if err := s.Reset(); err != nil {
		t.Fatal(err)
	}
	if ok, _ := s.Exists(1); ok {
		t.Fatal("skip-sync write survived power-off — the test device failed to lie")
	}
}

func TestCrashDuringFold(t *testing.T) {
	// Cut power at the fold's page-file write and at its log truncate; in
	// both cases every acknowledged write must survive power-on.
	for _, fault := range []pagestore.FileFault{pagestore.FileCrash, pagestore.FileTorn} {
		for _, foldOp := range []pagestore.FileOp{pagestore.FilePageWrite, pagestore.FileTruncate} {
			dir := t.TempDir()
			s := openT(t, dir, 32, 256)
			want := map[pagestore.PageID][]byte{}
			armed := false
			s.SetFileHook(func(op pagestore.FileOp, name string, seq int64) pagestore.FileFault {
				if armed && op == foldOp {
					armed = false
					return fault
				}
				return pagestore.FileOK
			})
			var crashedAt pagestore.PageID = -1
			for i := 0; i < 120 && crashedAt < 0; i++ {
				if i == 40 {
					armed = true // fault the next fold
				}
				id := pagestore.PageID(i % 7)
				data := []byte{byte(i), 0xAB}
				if err := s.Write(id, data, uint64(i)); err != nil {
					if !errors.Is(err, pagestore.ErrCrashed) {
						t.Fatal(err)
					}
					crashedAt = id
					break
				}
				want[id] = data
			}
			if crashedAt < 0 {
				t.Fatalf("fold fault %v@%v never fired", fault, foldOp)
			}
			if err := s.Reset(); err != nil {
				t.Fatal(err)
			}
			for id, data := range want {
				got, _, err := s.Read(id)
				if err != nil || !bytes.Equal(got, data) {
					t.Fatalf("fold fault %v@%v: page %d = %q %v, want %q",
						fault, foldOp, id, got, err, data)
				}
			}
			s.Close()
		}
	}
}

func TestDurabilityPropertyOnFiles(t *testing.T) {
	// The same property the in-memory store guarantees, on real files with
	// file-level crash injection: every acknowledged write survives
	// power-off + power-on.
	f := func(values []uint8, crashOp uint8) bool {
		dir := t.TempDir()
		s, err := open(dir, 16, 128)
		if err != nil {
			return false
		}
		defer s.Close()
		n := int64(crashOp%64) + 1
		fault := pagestore.FileCrash
		if crashOp%3 == 1 {
			fault = pagestore.FileTorn
		} else if crashOp%3 == 2 {
			fault = pagestore.FileLostSync
		}
		s.SetFileHook(hookAt(n, fault))
		acked := map[pagestore.PageID][]byte{}
		for i, v := range values {
			id := pagestore.PageID(i % 8)
			data := []byte{v, byte(i)}
			if err := s.Write(id, data, uint64(i)); err == nil {
				acked[id] = data
			}
		}
		if err := s.Reset(); err != nil {
			return false
		}
		for id, want := range acked {
			got, _, err := s.Read(id)
			if err != nil || !bytes.Equal(got, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestBufferOwnership: a store keeps no caller's buffer and hands out none
// of its own, on either medium. Mutating the buffer a Write took must not
// change the stored page; a slice a Read returned must not change when a
// later same-length Write overwrites the page in place; ReadInto reads into
// the caller's array when it has room.
func TestBufferOwnership(t *testing.T) {
	for _, c := range []struct {
		name string
		s    *pagestore.Store
	}{
		{"memory", pagestore.New(16)},
		{"file", openT(t, t.TempDir(), 16, 1<<20)},
	} {
		t.Run(c.name, func(t *testing.T) {
			buf := []byte("abcdefgh")
			if err := c.s.Write(7, buf, 1); err != nil {
				t.Fatal(err)
			}
			buf[0] = 'X'
			first, _, err := c.s.Read(7)
			if err != nil || string(first) != "abcdefgh" {
				t.Fatalf("after mutating the written buffer, Read = %q, %v", first, err)
			}
			if err := c.s.Write(7, []byte("12345678"), 2); err != nil {
				t.Fatal(err)
			}
			if string(first) != "abcdefgh" {
				t.Fatalf("a later Write changed an earlier Read's bytes to %q", first)
			}
			dst := make([]byte, 0, 16)
			got, v, err := c.s.ReadInto(dst, 7)
			if err != nil || string(got) != "12345678" || v != 2 {
				t.Fatalf("ReadInto = %q, %d, %v", got, v, err)
			}
			if &got[0] != &dst[:1][0] {
				t.Fatal("ReadInto did not read into the caller's array")
			}
			if err := c.s.Write(7, []byte("ABCDEFGH"), 3); err != nil {
				t.Fatal(err)
			}
			if string(got) != "12345678" {
				t.Fatalf("a later Write changed ReadInto's bytes to %q", got)
			}
		})
	}
	t.Run("file, after power-on", bufferOwnershipAfterPowerOn)
}

// bufferOwnershipAfterPowerOn is TestBufferOwnership's "file, after
// power-on" case. Power-on's pages alias the buffers the files were read
// into, each slice ending where its page's bytes do. A same-length Write
// then copies into the page in place, so it must leave the other pages and
// every earlier Read as they were, and a power-on with no fold between must
// bring every page back. A page Read after a Reset must keep its bytes
// while other pages are written, a fold rewrites data.db and truncates
// wal.log, and the store powers on again; and every page must come back
// byte-identical after that last power-on.
func bufferOwnershipAfterPowerOn(t *testing.T) {
	s := openT(t, t.TempDir(), 16, 128)
	want := map[pagestore.PageID]string{}
	write := func(id pagestore.PageID, v string) {
		t.Helper()
		if err := s.Write(id, []byte(v), uint64(len(want))); err != nil {
			t.Fatal(err)
		}
		want[id] = v
	}
	for id := pagestore.PageID(0); id < 4; id++ {
		write(id, fmt.Sprintf("page-%d-first", id))
	}
	if backend(t, s).Folds() == 0 {
		t.Fatal("the setup folded nothing into data.db")
	}
	folds := backend(t, s).Folds()
	write(0, "page-0-in-log") // pages 0 and 3 in wal.log, 0-2 in data.db
	must(t, s.Reset())

	type read struct {
		got  []byte
		want string
	}
	var reads []read
	for id := pagestore.PageID(0); id < 4; id++ {
		got, _, err := s.Read(id)
		if err != nil || string(got) != want[id] {
			t.Fatalf("after power-on page %d = %q, %v; want %q", id, got, err, want[id])
		}
		reads = append(reads, read{got, want[id]})
	}
	check := func(when string) {
		t.Helper()
		for id, r := range reads {
			if string(r.got) != r.want {
				t.Fatalf("%s changed an earlier Read of page %d from %q to %q", when, id, r.want, r.got)
			}
		}
		for id, v := range want {
			if got, _, err := s.Read(id); err != nil || string(got) != v {
				t.Fatalf("%s: page %d = %q, %v; want %q", when, id, got, err, v)
			}
		}
	}

	// In-place overwrites of aliased pages, then a power-on with no fold.
	b := backend(t, s)
	b.fold = 1 << 20
	for id := pagestore.PageID(0); id < 4; id++ {
		before, _, _ := b.Get(id)
		write(id, strings.ToUpper(want[id]))
		if after, _, _ := b.Get(id); &after[0] != &before[0] {
			t.Fatalf("a same-length Write of page %d did not copy into its buffer", id)
		}
		check(fmt.Sprintf("an in-place Write of page %d", id))
	}
	must(t, s.Reset())
	if b.Folds() != folds {
		t.Fatal("the in-place overwrites folded")
	}
	check("a power-on after in-place writes")
	b.fold = 128

	for i := 0; backend(t, s).Folds() == folds; i++ {
		write(pagestore.PageID(4+i%3), fmt.Sprintf("other-%d", i))
	}
	write(1, "page-1-rewritten")
	must(t, s.Reset())
	check("writes, a fold and a power-on")
}

func must(t testing.TB, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// powerOnShape is a store's files as restart finds them: folded pages in
// data.db and the records appended since in wal.log.
type powerOnShape struct {
	name     string
	pageSize int
	size     int // bytes per page image
	folded   int // pages in data.db, ids 0 up
	logged   int // records in wal.log
	id       func(i int) pagestore.PageID
}

// powerOnShapes are the two stores of the benchmark's durable-commit
// workload. Its data store holds 1,024 8-byte balances on 4 KiB pages and
// logs each stolen page again; its log store holds one chunk per force,
// each a commit's records, under ids that only grow.
func powerOnShapes(folded, logged int) []powerOnShape {
	return []powerOnShape{
		{"data", 4096, 8, min(folded, 1024), logged, func(i int) pagestore.PageID { return pagestore.PageID(i * 7919 % 1024) }},
		{"log", 1 << 16, 40, folded, logged, func(i int) pagestore.PageID { return pagestore.PageID(folded + i) }},
	}
}

// writeShape lays sh's files down in dir directly, in the formats a fold
// and an append write.
func writeShape(t testing.TB, dir string, sh powerOnShape) {
	t.Helper()
	img := func(i int) []byte {
		b := make([]byte, sh.size)
		binary.BigEndian.PutUint64(b, uint64(i))
		return b
	}
	var pages pagestore.Mem
	for i := 0; i < sh.folded; i++ {
		must(t, pages.Put(pagestore.PageID(i), img(i), 1))
	}
	var log []byte
	for i := 0; i < sh.logged; i++ {
		log = append(log, encodeWalRec(uint64(sh.folded+1+i), opPut, sh.id(i), uint64(i+2), img(i))...)
	}
	must(t, os.WriteFile(filepath.Join(dir, dataName), encodeDataFile(&pages.Pages, uint64(sh.folded), sh.pageSize), 0o644))
	must(t, os.WriteFile(filepath.Join(dir, walName), log, 0o644))
}

// TestPowerOnAllocationBudget: power-on reads each file with one read into
// one buffer and refills the mirror it cleared, aliasing the pages, so a
// store powered on in place (Store.Reset, as restart does) allocates as
// much over ~10,000 records as over ~1,000. The count is deterministic:
// clearing the mirror keeps its table's blocks, so the refill allocates
// none.
func TestPowerOnAllocationBudget(t *testing.T) {
	const budget = 16
	allocs := func(folded, logged int) float64 {
		sh := powerOnShapes(folded, logged)[0]
		dir := t.TempDir()
		writeShape(t, dir, sh)
		s := openT(t, dir, sh.pageSize, foldBytes)
		return testing.AllocsPerRun(5, func() { must(t, s.Reset()) })
	}
	small, large := allocs(100, 900), allocs(1024, 9000)
	t.Logf("power-on allocated %.0f times over 1,000 records and %.0f over 10,024", small, large)
	if large != small || large > budget {
		t.Fatalf("power-on allocated %.0f times over 1,000 records and %.0f over 10,024; want the same, at most %d", small, large, budget)
	}
}

// BenchmarkPowerOn times power-on in place (Store.Reset) over the two stores
// of the durable-commit workload, 10,000 pages folded into data.db (1,024
// on the data store) and 10,000 records in wal.log, and reports ns, B and
// allocations per record, data.db pages and wal.log records alike.
func BenchmarkPowerOn(b *testing.B) {
	for _, sh := range powerOnShapes(10000, 10000) {
		b.Run(sh.name, func(b *testing.B) {
			dir := b.TempDir()
			writeShape(b, dir, sh)
			s := openT(b, dir, sh.pageSize, foldBytes)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.Reset(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			per := float64(b.N) * float64(sh.folded+sh.logged)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/per, "ns/record")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/per, "B/record")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/per, "allocs/record")
		})
	}
}
