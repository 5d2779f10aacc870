package filestore

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/pagestore"
)

// FuzzFilestorePowerOn writes arbitrary wal.log and data.db bytes into a
// directory and opens a store over it. Power-on must either succeed or
// fail with an error wrapping ErrCorrupt, never panic. A store that opens
// must open again, after Close, with the same pages: power-on keeps what
// it replayed and zeroes only a torn tail. The seeds are real files, with
// and without a fold into data.db, and a torn log tail; each log also
// followed by zeros, as the store's extension ahead of its tail leaves it.
func FuzzFilestorePowerOn(f *testing.F) {
	const pageSize = 16
	for _, fold := range []int64{foldBytes, 64} {
		dir := f.TempDir()
		s, err := open(dir, pageSize, fold)
		if err != nil {
			f.Fatal(err)
		}
		for i := 0; i < 6; i++ {
			if err := s.Write(pagestore.PageID(i%4), bytes.Repeat([]byte{'a' + byte(i)}, i+1), uint64(i+1)); err != nil {
				f.Fatal(err)
			}
		}
		if err := s.Delete(3); err != nil {
			f.Fatal(err)
		}
		n := s.Backend().(*Backend).LogBytes()
		if err := s.Close(); err != nil {
			f.Fatal(err)
		}
		wal, _ := os.ReadFile(filepath.Join(dir, walName))
		wal = wal[:n] // the records, not the zeros ahead of them
		data, _ := os.ReadFile(filepath.Join(dir, dataName))
		f.Add(wal, data)
		f.Add(wal[:len(wal)-3], data)
		tail := make([]byte, 64)
		f.Add(append(bytes.Clone(wal), tail...), data)
		f.Add(append(bytes.Clone(wal[:len(wal)-3]), tail...), data)
	}
	f.Add([]byte{}, []byte{})
	f.Add(bytes.Repeat([]byte{0xff}, walHdrLen+8), dataMagic[:])
	f.Fuzz(func(t *testing.T, wal, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, walName), wal, 0o644); err != nil {
			t.Fatal(err)
		}
		if len(data) > 0 { // none: no page file yet
			if err := os.WriteFile(filepath.Join(dir, dataName), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		s, err := open(dir, pageSize, foldBytes)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("power-on failed without ErrCorrupt: %v", err)
			}
			return
		}
		first := pagesOf(t, s)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		s, err = open(dir, pageSize, foldBytes)
		if err != nil {
			t.Fatalf("second power-on: %v", err)
		}
		defer s.Close()
		if again := pagesOf(t, s); again != first {
			t.Fatalf("second power-on gave\n%s\nthe first\n%s", again, first)
		}
	})
}

// pagesOf lists every page of s with its version, in id order.
func pagesOf(t *testing.T, s *pagestore.Store) string {
	var out bytes.Buffer
	for _, id := range s.Keys() {
		data, version, err := s.Read(id)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&out, "%d v%d %x\n", id, version, data)
	}
	return out.String()
}
