package server

import (
	"encoding/binary"
	"fmt"

	"repro/internal/engine"
	"repro/internal/pagestore"
)

// Architectures lists the seven functional recovery architectures a server
// can run over (engine.Architectures).
func Architectures() []string { return engine.Architectures() }

// NewEngine builds a fresh transactional engine over the named recovery
// architecture on memory stores. The returned engine's kernel is wrapped in
// engine.Guard, so it is safe for the server's concurrent sessions.
func NewEngine(name string) (*engine.Engine, error) {
	e, _, err := engine.Build(name, 0, func(_ string, pageSize int) (*pagestore.Store, error) {
		return pagestore.New(pageSize), nil
	})
	return e, err
}

// InitPages loads pages 0..n-1 into e, each holding val as an 8-byte
// big-endian integer — the balance-record page image the load generator's
// debit/credit transactions and the consistency audits expect.
func InitPages(e *engine.Engine, n int, val int64) error {
	var img [8]byte
	binary.BigEndian.PutUint64(img[:], uint64(val))
	for p := 0; p < n; p++ {
		if err := e.Load(int64(p), img[:]); err != nil {
			return fmt.Errorf("server: init page %d: %w", p, err)
		}
	}
	return nil
}

// DecodeBalance reads the 8-byte big-endian integer in a page image written
// by InitPages-style workloads; short images read as 0.
func DecodeBalance(data []byte) int64 {
	if len(data) < 8 {
		return 0
	}
	return int64(binary.BigEndian.Uint64(data))
}

// EncodeBalance renders v as the 8-byte page image DecodeBalance reads.
func EncodeBalance(v int64) []byte {
	var img [8]byte
	binary.BigEndian.PutUint64(img[:], uint64(v))
	return img[:]
}
