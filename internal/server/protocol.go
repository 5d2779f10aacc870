// Package server is the networked transactional front end over the seven
// recovery architectures: a concurrent TCP server speaking a length-prefixed
// binary protocol of Begin/Read/Commit/Abort/Stats requests over any
// engine.Engine, plus the matching client, whose Write buffers page images
// until Commit carries them. It plays the role of the paper's back-end
// controller interface: many front-end hosts submit transaction requests,
// the controller schedules them against the recovery engine (page locks via
// internal/lockmgr, kernel calls serialized by engine.Guard), and deadlock
// victims are surfaced as a retryable response code rather than an error.
//
// This package is wrapper-side of the simlint D004 boundary: it owns
// goroutines, channels, and mutexes, and it reaches the pure kernels only
// through engine.Engine/engine.Guard. Wall time is read exclusively through
// internal/obs/live's Clock interface.
//
// # Wire format
//
// Every message — request and response — is one frame:
//
//	uint32 big-endian payload length | payload (1 ≤ length ≤ MaxFrame)
//
// A request payload is an opcode byte followed by big-endian fields:
//
//	OpBegin  : op txn(8)
//	OpRead   : op txn(8) page(8)
//	OpCommit : op txn(8) {page(8) len(4) data(len)}*
//	OpAbort  : op txn(8)
//	OpStats  : op
//
// txn is a handle the client picks in Begin. It names the transaction on
// this session only, and must not name another transaction the session has
// open. A Commit carries the transaction's whole write set, and zero writes
// is a plain commit. The server takes an exclusive lock on every page of
// the set before it writes the first, then commits. No request writes a
// single page: OpWrite is a retired opcode, rejected like an unknown one.
//
// A response payload echoes the opcode, then a status byte, then a body:
//
//	StatusOK       : Read → data…; Stats → nameLen(2) name
//	                 commits(8) aborts(8) deadlocks(8) sessions(8);
//	                 Begin/Commit/Abort → empty
//	StatusDeadlock : empty — the transaction was chosen as a deadlock victim
//	                 and has already been aborted server-side; begin a new
//	                 transaction and retry
//	StatusError    : UTF-8 message
//	StatusBusy     : empty — a kernel admission limit (e.g. the overwriting
//	                 engines' fixed intention list) rejected the operation;
//	                 the transaction has been aborted server-side; begin a
//	                 new transaction and retry
//
// Requests may be pipelined: the server answers them in order, and it
// flushes its replies only when no complete next request is already
// buffered, so a client that sends a Begin and a Read in one write gets
// both replies in one. A reply held back waits until the request after it
// has been served, which may wait for a lock, so a client should send
// ahead only requests whose replies it does not need first; Client sends
// only Begins ahead.
//
// Decoding is strict: unknown opcodes, unknown statuses, truncated fields,
// stray bytes, and over-long frames are errors, never panics, and a frame
// header can never cause more than MaxFrame bytes to be allocated.
package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/engine"
)

// Request opcodes. OpWrite is retired: no request carries it, and it keeps
// its value so that per-op metrics stay indexed by opcode.
const (
	OpBegin byte = iota + 1
	OpRead
	OpWrite
	OpCommit
	OpAbort
	OpStats
)

// Response status codes.
const (
	// StatusOK: the operation succeeded; the body is op-specific.
	StatusOK byte = iota
	// StatusDeadlock: the transaction was a deadlock victim and has been
	// aborted server-side. Retryable: begin a new transaction.
	StatusDeadlock
	// StatusError: the operation failed; the body is a message.
	StatusError
	// StatusBusy: a kernel admission limit rejected the operation and the
	// transaction has been aborted server-side. Retryable: begin a new
	// transaction.
	StatusBusy
)

// MaxFrame bounds a frame payload. A length prefix above it is rejected
// before any allocation, so a hostile or corrupt header cannot make the
// reader allocate gigabytes. Page data (≤ 4 KiB everywhere in this repo)
// fits with room for growth.
const MaxFrame = 1 << 20

// ErrFrameTooLarge is returned for a length prefix exceeding MaxFrame.
var ErrFrameTooLarge = errors.New("server: frame exceeds MaxFrame")

// ErrEmptyFrame is returned for a zero-length frame (every payload carries
// at least an opcode).
var ErrEmptyFrame = errors.New("server: empty frame")

// opName reports a diagnostic name for an opcode.
func opName(op byte) string {
	switch op {
	case OpBegin:
		return "begin"
	case OpRead:
		return "read"
	case OpCommit:
		return "commit"
	case OpAbort:
		return "abort"
	case OpStats:
		return "stats"
	}
	return fmt.Sprintf("op%d", op)
}

// Request is one client request.
type Request struct {
	Op     byte
	Txn    uint64             // the session-local handle; Begin names the one it opens
	Page   int64              // OpRead
	Writes []engine.PageWrite // OpCommit: the transaction's write set
}

// writeHeader is the size of a write-set entry's fixed fields: page(8) len(4).
const writeHeader = 12

// Stats is the server-side counter snapshot returned by OpStats.
type Stats struct {
	Engine    string `json:"engine"`
	Commits   int64  `json:"commits"`
	Aborts    int64  `json:"aborts"`
	Deadlocks int64  `json:"deadlocks"`
	Sessions  int64  `json:"sessions"`
}

// Response is one server response. Op echoes the request opcode so a
// response decodes without request context.
type Response struct {
	Op     byte
	Status byte
	Data   []byte // OpRead result
	Msg    string // StatusError message
	Stats  Stats  // OpStats result
}

// AppendRequest appends r's payload encoding (no frame header) to buf.
func AppendRequest(buf []byte, r Request) []byte {
	buf = append(buf, r.Op)
	switch r.Op {
	case OpBegin, OpAbort:
		buf = binary.BigEndian.AppendUint64(buf, r.Txn)
	case OpRead:
		buf = binary.BigEndian.AppendUint64(buf, r.Txn)
		buf = binary.BigEndian.AppendUint64(buf, uint64(r.Page))
	case OpCommit:
		buf = binary.BigEndian.AppendUint64(buf, r.Txn)
		for _, w := range r.Writes {
			buf = binary.BigEndian.AppendUint64(buf, uint64(w.Page))
			buf = binary.BigEndian.AppendUint32(buf, uint32(len(w.Data)))
			buf = append(buf, w.Data...)
		}
	}
	return buf
}

// DecodeRequest parses one request payload. The returned Request's write
// images alias payload; callers that keep them across frames must copy.
func DecodeRequest(payload []byte) (Request, error) {
	if len(payload) == 0 {
		return Request{}, ErrEmptyFrame
	}
	r := Request{Op: payload[0]}
	body := payload[1:]
	switch r.Op {
	case OpStats:
		if len(body) != 0 {
			return Request{}, fmt.Errorf("server: stats request carries %d stray bytes", len(body))
		}
	case OpBegin, OpAbort:
		if len(body) != 8 {
			return Request{}, fmt.Errorf("server: %s request body is %d bytes, want 8", opName(r.Op), len(body))
		}
		r.Txn = binary.BigEndian.Uint64(body)
	case OpRead:
		if len(body) != 16 {
			return Request{}, fmt.Errorf("server: read request body is %d bytes, want 16", len(body))
		}
		r.Txn = binary.BigEndian.Uint64(body)
		r.Page = int64(binary.BigEndian.Uint64(body[8:]))
	case OpCommit:
		if len(body) < 8 {
			return Request{}, fmt.Errorf("server: commit request body is %d bytes, want ≥ 8", len(body))
		}
		r.Txn = binary.BigEndian.Uint64(body)
		// Every entry takes at least writeHeader bytes, so the set can never
		// hold more than len(body)/writeHeader entries.
		for rest := body[8:]; len(rest) > 0; {
			if len(rest) < writeHeader {
				return Request{}, fmt.Errorf("server: commit write %d: header is %d bytes, want %d", len(r.Writes), len(rest), writeHeader)
			}
			n := uint64(binary.BigEndian.Uint32(rest[8:]))
			if n > uint64(len(rest)-writeHeader) {
				return Request{}, fmt.Errorf("server: commit write %d: %d bytes announced, %d left", len(r.Writes), n, len(rest)-writeHeader)
			}
			r.Writes = append(r.Writes, engine.PageWrite{
				Page: int64(binary.BigEndian.Uint64(rest)),
				Data: rest[writeHeader : writeHeader+n : writeHeader+n],
			})
			rest = rest[writeHeader+n:]
		}
	default:
		return Request{}, fmt.Errorf("server: unknown opcode %d", r.Op)
	}
	return r, nil
}

// AppendResponse appends r's payload encoding (no frame header) to buf.
func AppendResponse(buf []byte, r Response) []byte {
	buf = append(buf, r.Op, r.Status)
	switch r.Status {
	case StatusError:
		return append(buf, r.Msg...)
	case StatusDeadlock, StatusBusy:
		return buf
	}
	switch r.Op {
	case OpRead:
		return append(buf, r.Data...)
	case OpStats:
		name := r.Stats.Engine
		if len(name) > 0xffff {
			name = name[:0xffff]
		}
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(name)))
		buf = append(buf, name...)
		buf = binary.BigEndian.AppendUint64(buf, uint64(r.Stats.Commits))
		buf = binary.BigEndian.AppendUint64(buf, uint64(r.Stats.Aborts))
		buf = binary.BigEndian.AppendUint64(buf, uint64(r.Stats.Deadlocks))
		buf = binary.BigEndian.AppendUint64(buf, uint64(r.Stats.Sessions))
	}
	return buf
}

// DecodeResponse parses one response payload. The returned Response's Data
// aliases payload; callers that keep it across frames must copy.
func DecodeResponse(payload []byte) (Response, error) {
	if len(payload) == 0 {
		return Response{}, ErrEmptyFrame
	}
	if len(payload) < 2 {
		return Response{}, fmt.Errorf("server: response payload is %d bytes, want ≥ 2", len(payload))
	}
	r := Response{Op: payload[0], Status: payload[1]}
	body := payload[2:]
	if r.Status == StatusError {
		// An error response may echo an opcode the decoder does not
		// recognize: the server echoes whatever byte led a malformed
		// request when it reports the protocol error.
		r.Msg = string(body)
		return r, nil
	}
	switch r.Op {
	case OpBegin, OpRead, OpCommit, OpAbort, OpStats:
	default:
		return Response{}, fmt.Errorf("server: unknown opcode %d in response", r.Op)
	}
	switch r.Status {
	case StatusDeadlock, StatusBusy:
		if len(body) != 0 {
			return Response{}, fmt.Errorf("server: status-%d response carries %d stray bytes", r.Status, len(body))
		}
		return r, nil
	case StatusOK:
	default:
		return Response{}, fmt.Errorf("server: unknown status %d", r.Status)
	}
	switch r.Op {
	case OpRead:
		r.Data = body
	case OpBegin, OpCommit, OpAbort:
		if len(body) != 0 {
			return Response{}, fmt.Errorf("server: %s response carries %d stray bytes", opName(r.Op), len(body))
		}
	case OpStats:
		if len(body) < 2 {
			return Response{}, fmt.Errorf("server: stats response body is %d bytes, want ≥ 2", len(body))
		}
		n := int(binary.BigEndian.Uint16(body))
		body = body[2:]
		if len(body) != n+32 {
			return Response{}, fmt.Errorf("server: stats response body is %d bytes, want %d", len(body), n+32)
		}
		r.Stats.Engine = string(body[:n])
		body = body[n:]
		r.Stats.Commits = int64(binary.BigEndian.Uint64(body))
		r.Stats.Aborts = int64(binary.BigEndian.Uint64(body[8:]))
		r.Stats.Deadlocks = int64(binary.BigEndian.Uint64(body[16:]))
		r.Stats.Sessions = int64(binary.BigEndian.Uint64(body[24:]))
	}
	return r, nil
}

// WriteFrame writes one length-prefixed frame.
func WriteFrame(w io.Writer, payload []byte) error {
	if len(payload) == 0 {
		return ErrEmptyFrame
	}
	if len(payload) > MaxFrame {
		return ErrFrameTooLarge
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one length-prefixed frame, reusing buf when it has
// capacity. A header announcing more than MaxFrame bytes is rejected before
// any allocation; io.EOF is returned untouched only on a clean boundary
// (no header bytes read at all), so callers can distinguish an orderly
// disconnect from a truncated frame.
func ReadFrame(r io.Reader, buf []byte) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("server: truncated frame header: %w", err)
		}
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 {
		return nil, ErrEmptyFrame
	}
	if n > MaxFrame {
		return nil, fmt.Errorf("%w: header announces %d bytes", ErrFrameTooLarge, n)
	}
	if uint32(cap(buf)) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if got, err := io.ReadFull(r, buf); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("server: truncated frame (%d of %d bytes): %w", got, n, io.ErrUnexpectedEOF)
		}
		return nil, err
	}
	return buf, nil
}
