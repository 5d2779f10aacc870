package server

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/engine"
)

func TestRequestRoundTrip(t *testing.T) {
	reqs := []Request{
		{Op: OpBegin, Txn: 1},
		{Op: OpBegin, Txn: 1<<64 - 1},
		{Op: OpStats},
		{Op: OpCommit, Txn: 7},
		{Op: OpAbort, Txn: 1<<63 + 9},
		{Op: OpRead, Txn: 3, Page: 41},
		{Op: OpRead, Txn: 3, Page: -1},
		{Op: OpCommit, Txn: 12, Writes: []engine.PageWrite{{Page: 5, Data: []byte{}}}},
		{Op: OpCommit, Txn: 12, Writes: []engine.PageWrite{
			{Page: 5, Data: []byte("hello page")},
			{Page: -2, Data: []byte{}},
			{Page: 1 << 40, Data: bytes.Repeat([]byte{0xAB}, 300)},
		}},
	}
	for _, want := range reqs {
		payload := AppendRequest(nil, want)
		got, err := DecodeRequest(payload)
		if err != nil {
			t.Fatalf("decode %s: %v", opName(want.Op), err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip %s: got %+v, want %+v", opName(want.Op), got, want)
		}
	}
}

func TestResponseRoundTrip(t *testing.T) {
	resps := []Response{
		{Op: OpBegin, Status: StatusOK},
		{Op: OpRead, Status: StatusOK, Data: []byte("page image")},
		{Op: OpCommit, Status: StatusOK},
		{Op: OpAbort, Status: StatusOK},
		{Op: OpStats, Status: StatusOK, Stats: Stats{
			Engine: "wal-1stream", Commits: 10, Aborts: 2, Deadlocks: 1, Sessions: 42,
		}},
		{Op: OpRead, Status: StatusDeadlock},
		{Op: OpCommit, Status: StatusDeadlock},
		{Op: OpRead, Status: StatusBusy},
		{Op: OpCommit, Status: StatusBusy},
		{Op: OpBegin, Status: StatusError, Msg: "transaction 3 is already open"},
		{Op: OpCommit, Status: StatusError, Msg: "unknown transaction 7"},
		// An error response may echo an opcode the decoder does not know:
		// the server echoes the byte that led a malformed request.
		{Op: 0xEE, Status: StatusError, Msg: "server: unknown opcode 238"},
	}
	for _, want := range resps {
		payload := AppendResponse(nil, want)
		got, err := DecodeResponse(payload)
		if err != nil {
			t.Fatalf("decode %s/%d: %v", opName(want.Op), want.Status, err)
		}
		if len(want.Data) == 0 {
			want.Data = nil
			if len(got.Data) == 0 {
				got.Data = nil
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip %s/%d: got %+v, want %+v", opName(want.Op), want.Status, got, want)
		}
	}
}

func TestDecodeRequestRejectsMalformed(t *testing.T) {
	commit := func(tail ...byte) []byte {
		return append(append([]byte{OpCommit}, make([]byte, 8)...), tail...)
	}
	write := func(page uint64, n uint32, data ...byte) []byte {
		b := binary.BigEndian.AppendUint64(nil, page)
		return append(binary.BigEndian.AppendUint32(b, n), data...)
	}
	bad := [][]byte{
		{},                                   // empty payload
		{0},                                  // opcode 0
		{99},                                 // unknown opcode
		{255, 1, 2, 3},                       // unknown opcode with body
		{OpBegin},                            // begin without its handle
		{OpBegin, 1, 2, 3, 4, 5, 6, 7},       // begin handle short
		{OpBegin, 1, 2, 3, 4, 5, 6, 7, 8, 9}, // begin handle long
		{OpStats, 0, 0},                      // stray bytes after stats
		{OpCommit, 1, 2, 3},                  // commit body too short
		{OpAbort, 1, 2, 3, 4, 5, 6, 7, 8, 9}, // abort body too long
		append([]byte{OpRead}, make([]byte, 15)...), // read body short
		append([]byte{OpRead}, make([]byte, 17)...), // read body long
		// The retired single-page write, in its old shape and with no body.
		append([]byte{OpWrite}, make([]byte, 16)...),
		{OpWrite},
		commit(0),                                                // stray byte after the handle
		commit(make([]byte, 11)...),                              // write header truncated
		commit(write(1, 1)...),                                   // length past the end
		commit(write(1, 4, 'a', 'b')...),                         // length past the end, some data
		commit(write(1, 1<<32-1, 'x')...),                        // length far past the end
		commit(append(write(1, 1, 'x'), 0)...),                   // stray byte after a write
		commit(append(write(1, 0), write(2, 2, 'y')...)...),      // second write truncated
		commit(append(write(1, 1, 'x'), make([]byte, 11)...)...), // second header truncated
	}
	for _, payload := range bad {
		if _, err := DecodeRequest(payload); err == nil {
			t.Errorf("DecodeRequest(%v) accepted malformed payload", payload)
		}
	}
}

func TestDecodeResponseRejectsMalformed(t *testing.T) {
	bad := [][]byte{
		{},                             // empty
		{OpBegin},                      // no status
		{0, StatusOK},                  // opcode 0
		{77, StatusOK},                 // unknown opcode
		{OpRead, 9},                    // unknown status
		{OpRead, StatusDeadlock, 1},    // stray bytes on deadlock
		{OpWrite, StatusBusy, 1},       // stray bytes on busy
		{OpBegin, StatusOK, 1, 2, 3},   // stray bytes on begin ok
		{OpWrite, StatusOK},            // the retired write opcode
		{OpCommit, StatusOK, 1},        // stray bytes on commit ok
		{OpStats, StatusOK, 0},         // stats body shorter than nameLen
		{OpStats, StatusOK, 0, 3, 'a'}, // stats name overruns body
	}
	// nameLen consistent but counter block truncated.
	statsShort := []byte{OpStats, StatusOK, 0, 1, 'x'}
	statsShort = append(statsShort, make([]byte, 31)...)
	bad = append(bad, statsShort)
	for _, payload := range bad {
		if _, err := DecodeResponse(payload); err == nil {
			t.Errorf("DecodeResponse(%v) accepted malformed payload", payload)
		}
	}
}

// TestDecodeNeverPanics drives both decoders with seeded random garbage and
// with random truncations/corruptions of valid encodings. Every call must
// return (possibly an error) — a panic fails the test by crashing it.
func TestDecodeNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		payload := make([]byte, rng.Intn(64))
		rng.Read(payload)
		DecodeRequest(payload)
		DecodeResponse(payload)
	}
	valid := [][]byte{
		AppendRequest(nil, Request{Op: OpBegin, Txn: 3}),
		AppendRequest(nil, Request{Op: OpRead, Txn: 1, Page: 2}),
		AppendRequest(nil, Request{Op: OpCommit, Txn: 1, Writes: []engine.PageWrite{
			{Page: 2, Data: []byte("data")}, {Page: 7, Data: []byte("more data")},
		}}),
		AppendResponse(nil, Response{Op: OpStats, Status: StatusOK, Stats: Stats{Engine: "shadow", Commits: 5}}),
		AppendResponse(nil, Response{Op: OpBegin, Status: StatusOK}),
	}
	for _, v := range valid {
		for i := 0; i < 2000; i++ {
			mut := append([]byte(nil), v...)
			mut = mut[:rng.Intn(len(mut)+1)]
			if len(mut) > 0 && rng.Intn(2) == 0 {
				mut[rng.Intn(len(mut))] ^= byte(1 << rng.Intn(8))
			}
			DecodeRequest(mut)
			DecodeResponse(mut)
		}
	}
}

func TestWriteFrameRejectsEmptyAndOversized(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, nil); !errors.Is(err, ErrEmptyFrame) {
		t.Fatalf("WriteFrame(nil) = %v, want ErrEmptyFrame", err)
	}
	if err := WriteFrame(&buf, make([]byte, MaxFrame+1)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("WriteFrame(MaxFrame+1) = %v, want ErrFrameTooLarge", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("rejected frames still wrote %d bytes", buf.Len())
	}
}

func TestReadFrameBoundaries(t *testing.T) {
	// Clean EOF at a frame boundary stays io.EOF so sessions can tell an
	// orderly disconnect from a truncated stream.
	if _, err := ReadFrame(bytes.NewReader(nil), nil); err != io.EOF {
		t.Fatalf("empty stream: %v, want io.EOF", err)
	}
	// Partial header.
	if _, err := ReadFrame(bytes.NewReader([]byte{0, 0}), nil); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("partial header: %v, want ErrUnexpectedEOF", err)
	}
	// Header promising more payload than the stream carries.
	frame := []byte{0, 0, 0, 10, 'x', 'y'}
	if _, err := ReadFrame(bytes.NewReader(frame), nil); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated payload: %v, want ErrUnexpectedEOF", err)
	}
	// Zero-length frame.
	if _, err := ReadFrame(bytes.NewReader([]byte{0, 0, 0, 0}), nil); !errors.Is(err, ErrEmptyFrame) {
		t.Fatalf("zero frame: %v, want ErrEmptyFrame", err)
	}
	// A valid frame round-trips through WriteFrame/ReadFrame with buffer reuse.
	var stream bytes.Buffer
	if err := WriteFrame(&stream, []byte("abc")); err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(&stream, []byte("defg")); err != nil {
		t.Fatal(err)
	}
	buf, err := ReadFrame(&stream, nil)
	if err != nil || string(buf) != "abc" {
		t.Fatalf("frame 1: %q, %v", buf, err)
	}
	buf2, err := ReadFrame(&stream, buf[:0])
	if err != nil || string(buf2) != "defg" {
		t.Fatalf("frame 2: %q, %v", buf2, err)
	}
}

// TestReadFrameOversizedHeaderDoesNotAllocate feeds headers announcing up to
// 4 GiB of payload and asserts ReadFrame rejects them without allocating
// anywhere near the announced size.
func TestReadFrameOversizedHeaderDoesNotAllocate(t *testing.T) {
	announce := []uint32{MaxFrame + 1, 1 << 28, 1 << 31, 1<<32 - 1}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, n := range announce {
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], n)
		if _, err := ReadFrame(bytes.NewReader(hdr[:]), nil); !errors.Is(err, ErrFrameTooLarge) {
			t.Fatalf("header %d: %v, want ErrFrameTooLarge", n, err)
		}
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > MaxFrame {
		t.Fatalf("rejecting oversized headers allocated %d bytes", grew)
	}
}

// FuzzDecodeRequest: no input panics the decoder, a commit never decodes to
// more writes than its body can hold, and every payload it accepts
// re-encodes to the same bytes — so the encoding has one form, and what the
// server executes is exactly what the client sent.
func FuzzDecodeRequest(f *testing.F) {
	for _, r := range []Request{
		{Op: OpBegin, Txn: 1},
		{Op: OpRead, Txn: 1, Page: 9},
		{Op: OpAbort, Txn: 4},
		{Op: OpStats},
		{Op: OpCommit, Txn: 2},
		{Op: OpCommit, Txn: 2, Writes: []engine.PageWrite{{Page: 3, Data: []byte("abcdefgh")}, {Page: 4, Data: nil}}},
	} {
		f.Add(AppendRequest(nil, r))
	}
	f.Add([]byte{OpWrite, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 2, 'x'})
	f.Fuzz(func(t *testing.T, payload []byte) {
		r, err := DecodeRequest(payload)
		if err != nil {
			return
		}
		if max := len(payload) / writeHeader; len(r.Writes) > max {
			t.Fatalf("%d-byte payload decoded to %d writes, at most %d fit", len(payload), len(r.Writes), max)
		}
		if again := AppendRequest(nil, r); !bytes.Equal(again, payload) {
			t.Fatalf("accepted %x re-encodes as %x", payload, again)
		}
	})
}
