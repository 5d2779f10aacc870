package wal

import (
	"bytes"
	"testing"
)

// FuzzUnmarshalRecord hammers the log-record decoder with arbitrary bytes:
// it must never panic, every successfully decoded record must re-encode to
// the bytes it consumed (a record has one encoding), nothing it describes
// may reach past LogChunkSize, and applying it to a page it does not fit is
// an error, not a panic.
func FuzzUnmarshalRecord(f *testing.F) {
	for _, r := range []Record{
		{LSN: 7, Type: RecUpdate, Txn: 3, Page: 9, PrevLSN: 5, Off: 1, Del: 3, Old: []byte("old"), New: []byte("new")},
		{LSN: 9, Type: RecUpdate, Txn: 3, Page: -9, PrevLSN: 7, CompLSN: 7, Off: 1, Del: 3, New: []byte("old")},
		{LSN: 1 << 40, Type: RecUpdate, Txn: 1 << 33, Page: 1 << 20, New: bytes.Repeat([]byte{7}, 300)},
		{LSN: 10, Type: RecCommit, Txn: 3, PrevLSN: 9},
		{LSN: 11, Type: RecAbort, Txn: 4},
		{LSN: 12, Type: RecCheckpoint, PrevLSN: 11},
	} {
		f.Add(r.Marshal(nil))
	}
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3})
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	f.Add([]byte{byte(RecCommit), 0x89, 0x00, 2})                                    // overlong LSN
	f.Add([]byte{byte(RecCommit) | tagPrev, 9, 2, 0x80, 0x00})                       // overlong distance
	f.Add(append([]byte{byte(RecCommit)}, bytes.Repeat([]byte{0x80}, 12)...))        // varint that never ends
	f.Add([]byte{byte(RecUpdate) | tagNew, 9, 2, 8, 0xff, 0xff, 0x7f, 'x'})          // len(New) past the chunk
	f.Add([]byte{byte(RecUpdate) | tagDel, 9, 2, 8, 0xff, 0xff, 0xff, 0xff, 0x0f})   // Del past the chunk
	f.Add([]byte{byte(RecUpdate) | tagComp | tagOff | tagDel, 9, 2, 8, 1, 0x7f, 50}) // offset+len past a small page
	f.Fuzz(func(t *testing.T, data []byte) {
		r, n, err := UnmarshalRecord(data)
		if err != nil {
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("consumed %d of %d", n, len(data))
		}
		if again := r.Marshal(nil); !bytes.Equal(again, data[:n]) {
			t.Fatalf("re-encode mismatch:\n in  %x\n out %x", data[:n], again)
		}
		if r.Off+r.Del > LogChunkSize || r.Off+len(r.New) > LogChunkSize || len(r.Old)+len(r.New) > n {
			t.Fatalf("record reaches past the chunk or its own bytes: %+v", r)
		}
		if r.Type != RecUpdate {
			return
		}
		page := bytes.Repeat([]byte{'p'}, 64)
		out, err := splice(page, r.Off, r.Del, r.New)
		if (err == nil) != (r.Off+r.Del <= 64) {
			t.Fatalf("splice of (%d,-%d,+%d) into 64 bytes: %v", r.Off, r.Del, len(r.New), err)
		}
		if err == nil && len(out) != 64-r.Del+len(r.New) {
			t.Fatalf("splice left %d bytes, want %d", len(out), 64-r.Del+len(r.New))
		}
	})
}
