package pagestore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"
)

// allocated reports the bytes f allocates on the heap.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// snapHeader is a blob's 17-byte header: magic, kind, page size, put count.
func snapHeader(kind byte, pageSize, nputs uint32) []byte {
	b := append([]byte{}, snapMagic[:]...)
	b = append(b, kind)
	b = binary.BigEndian.AppendUint32(b, pageSize)
	return binary.BigEndian.AppendUint32(b, nputs)
}

// TestSnapshotDecodersBoundAllocation: a blob's counts and lengths are
// untrusted. A short blob that claims a huge count or length must fail as
// corrupt without allocating what the claim asks for.
func TestSnapshotDecodersBoundAllocation(t *testing.T) {
	const pageSize = 64
	cases := []struct {
		name string
		blob []byte
	}{
		{"2^27 puts", snapHeader(snapFull, pageSize, 1<<27)},
		{"2^28 dels", binary.BigEndian.AppendUint32(snapHeader(snapIncr, pageSize, 0), 1<<28)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			decoders := map[string]func() error{
				"ApplySnapshot": func() error { return New(pageSize).ApplySnapshot(bytes.NewReader(c.blob)) },
				"SnapshotManifest": func() error {
					_, err := SnapshotManifest(bytes.NewReader(c.blob), Manifest{})
					return err
				},
			}
			for name, decode := range decoders {
				var err error
				n := allocated(func() { err = decode() })
				if !errors.Is(err, ErrSnapshotCorrupt) {
					t.Fatalf("%s: err = %v, want ErrSnapshotCorrupt", name, err)
				}
				if n > 1<<20 {
					t.Fatalf("%s allocated %d B for a %d-byte blob", name, n, len(c.blob))
				}
			}
		})
	}
	// SnapshotManifest checks no page size, so a record may claim any
	// length up to the header's; it still reads no more than is there.
	huge := snapHeader(snapFull, 1<<31, 1)
	huge = binary.BigEndian.AppendUint64(huge, 1) // id
	huge = binary.BigEndian.AppendUint64(huge, 1) // version
	huge = binary.BigEndian.AppendUint32(huge, 1<<31)
	var err error
	n := allocated(func() { _, err = SnapshotManifest(bytes.NewReader(huge), nil) })
	if !errors.Is(err, ErrSnapshotCorrupt) || n > 1<<20 {
		t.Fatalf("2^31-byte record under a 2^31-byte page size: err = %v, %d B allocated", err, n)
	}
}
