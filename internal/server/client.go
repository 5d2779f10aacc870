package server

import (
	"bufio"
	"errors"
	"fmt"
	"net"

	"repro/internal/engine"
)

// ErrDeadlock is returned by Client calls whose transaction was chosen as a
// deadlock victim. The transaction has already been aborted server-side;
// begin a new one and retry.
var ErrDeadlock = errors.New("server: transaction aborted as deadlock victim (retry)")

// ErrBusy is returned by Client calls rejected by a kernel admission limit
// (e.g. the overwriting engines' fixed intention list). The transaction has
// already been aborted server-side; begin a new one and retry, ideally
// after a short backoff.
var ErrBusy = errors.New("server: transaction aborted at kernel admission limit (retry)")

// maxAhead bounds the Begin requests a Client sends ahead of a flush. Their
// replies wait in the socket until the next flushing call reads them, so the
// bound keeps those replies far smaller than any socket buffer.
const maxAhead = 64

// Client is one session against a dbserver: a single TCP connection. A
// Client is owned by one goroutine; open as many Clients as you want
// concurrent sessions.
//
// A transfer costs three round trips. Begin picks the transaction's handle
// and queues its request, which goes out, and is answered, with the next
// call that waits for a reply. Write only keeps the page image in the
// client, and Commit carries the transaction's whole write set in one
// frame. So a failed Begin is reported by the next Read, Commit, Abort or
// Stats that goes to the server, whichever transaction that call names,
// and a write the server refuses is reported by Commit. Handles are local
// to this session: another Client's handle names nothing here.
type Client struct {
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	in   []byte
	out  []byte

	next  uint64                        // the last handle Begin picked
	ahead int                           // Begins sent whose replies are unread
	sets  map[uint64][]engine.PageWrite // write sets of open transactions
}

// Dial opens a session to addr.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("server: dial %s: %w", addr, err)
	}
	return NewClient(conn), nil
}

// NewClient wraps an established connection (any net.Conn, e.g. one end of
// a net.Pipe in tests).
func NewClient(conn net.Conn) *Client {
	return &Client{
		conn: conn,
		br:   bufio.NewReaderSize(conn, 8<<10),
		bw:   bufio.NewWriterSize(conn, 8<<10),
		sets: make(map[uint64][]engine.PageWrite),
	}
}

// Close ends the session. Transactions still open are aborted server-side.
func (c *Client) Close() error { return c.conn.Close() }

// send buffers one request frame.
func (c *Client) send(req Request) error {
	c.out = AppendRequest(c.out[:0], req)
	return WriteFrame(c.bw, c.out)
}

// flush sends every buffered request and reads the replies to the Begins
// sent ahead, returning the first failure among them.
func (c *Client) flush() error {
	if err := c.bw.Flush(); err != nil {
		return err
	}
	var first error
	for ; c.ahead > 0; c.ahead-- {
		if _, err := c.receive(OpBegin); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// receive reads one reply to a request of op, translating StatusDeadlock,
// StatusBusy and StatusError into errors.
func (c *Client) receive(op byte) (Response, error) {
	payload, err := ReadFrame(c.br, c.in)
	if err != nil {
		return Response{}, err
	}
	c.in = payload[:0]
	resp, err := DecodeResponse(payload)
	if err != nil {
		return Response{}, err
	}
	if resp.Op != op {
		return Response{}, fmt.Errorf("server: response op %s for request %s — stream out of sync",
			opName(resp.Op), opName(op))
	}
	switch resp.Status {
	case StatusOK:
		return resp, nil
	case StatusDeadlock:
		return resp, ErrDeadlock
	case StatusBusy:
		return resp, ErrBusy
	default:
		return resp, fmt.Errorf("server: %s: %s", opName(op), resp.Msg)
	}
}

// roundTrip sends req with every request buffered ahead of it and reads the
// replies. A failed Begin sent ahead takes precedence over req's own result.
func (c *Client) roundTrip(req Request) (Response, error) {
	if err := c.send(req); err != nil {
		return Response{}, err
	}
	beginErr := c.flush()
	resp, err := c.receive(req.Op)
	if beginErr != nil {
		return resp, beginErr
	}
	if errors.Is(err, ErrDeadlock) || errors.Is(err, ErrBusy) {
		delete(c.sets, req.Txn) // the server has aborted the transaction
	}
	return resp, err
}

// Begin starts a transaction and returns its handle. The request is sent
// with the next call that flushes, which also reports a Begin that failed.
func (c *Client) Begin() (uint64, error) {
	c.next++
	if err := c.send(Request{Op: OpBegin, Txn: c.next}); err != nil {
		return 0, err
	}
	if c.ahead++; c.ahead < maxAhead {
		return c.next, nil
	}
	return c.next, c.flush()
}

// Read returns page p under txn's shared lock, or the image an earlier Write
// of txn left, without a round trip. ErrDeadlock means txn was aborted as a
// deadlock victim.
func (c *Client) Read(txn uint64, p int64) ([]byte, error) {
	for _, w := range c.sets[txn] {
		if w.Page == p {
			return append([]byte(nil), w.Data...), nil
		}
	}
	resp, err := c.roundTrip(Request{Op: OpRead, Txn: txn, Page: p})
	if err != nil {
		return nil, err
	}
	return append([]byte(nil), resp.Data...), nil
}

// Write replaces page p in txn's write set. Nothing is sent: Commit takes
// the exclusive locks and writes the set, and reports what the server
// refused.
func (c *Client) Write(txn uint64, p int64, data []byte) error {
	ws := c.sets[txn]
	for i := range ws {
		if ws[i].Page == p {
			ws[i].Data = append(ws[i].Data[:0], data...)
			return nil
		}
	}
	c.sets[txn] = append(ws, engine.PageWrite{Page: p, Data: append([]byte(nil), data...)})
	return nil
}

// Commit writes txn's write set, makes it durable and releases txn's
// locks. ErrDeadlock means txn was aborted as a deadlock victim, with
// nothing written.
func (c *Client) Commit(txn uint64) error {
	ws := c.sets[txn]
	delete(c.sets, txn)
	_, err := c.roundTrip(Request{Op: OpCommit, Txn: txn, Writes: ws})
	return err
}

// Abort drops txn's write set, rolls txn back and releases its locks.
func (c *Client) Abort(txn uint64) error {
	delete(c.sets, txn)
	_, err := c.roundTrip(Request{Op: OpAbort, Txn: txn})
	return err
}

// Stats fetches the server's counter snapshot.
func (c *Client) Stats() (Stats, error) {
	resp, err := c.roundTrip(Request{Op: OpStats})
	return resp.Stats, err
}
