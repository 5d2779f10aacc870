package server

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/engine"
	"repro/internal/shadoweng"
	"repro/internal/wal"
)

// Architectures lists the seven functional recovery architectures a server
// can run over, by canonical name (the same names internal/faultinj sweeps
// and cmd/crashsweep reports use).
func Architectures() []string {
	return []string{
		"wal-1stream",
		"wal-3streams",
		"shadow",
		"ow-noundo",
		"ow-noredo",
		"verselect",
		"difffile",
	}
}

// NewEngine builds a fresh transactional engine over the named recovery
// architecture. The returned engine's kernel is wrapped in engine.Guard
// (engine.New does this), so it is safe for the server's concurrent
// sessions.
func NewEngine(name string) (*engine.Engine, error) {
	switch name {
	case "wal-1stream":
		return engine.NewWAL(wal.Config{}), nil
	case "wal-3streams":
		return engine.NewWAL(wal.Config{Streams: 3, Selection: wal.PageMod}), nil
	case "shadow":
		return engine.NewShadow()
	case "ow-noundo":
		return engine.NewOverwrite(shadoweng.NoUndo), nil
	case "ow-noredo":
		return engine.NewOverwrite(shadoweng.NoRedo), nil
	case "verselect":
		return engine.NewVersionSelect()
	case "difffile":
		return engine.NewDiff(), nil
	}
	return nil, unknownArchitecture(name)
}

func unknownArchitecture(name string) error {
	known := Architectures()
	sort.Strings(known)
	return fmt.Errorf("server: unknown architecture %q (have %s)",
		name, strings.Join(known, ", "))
}

// EnginesByName resolves a comma-separated architecture list; empty or
// "all" selects all seven.
func EnginesByName(sel string) ([]string, error) {
	if sel == "" || sel == "all" {
		return Architectures(), nil
	}
	var out []string
	for _, name := range strings.Split(sel, ",") {
		name = strings.TrimSpace(name)
		if !slices.Contains(Architectures(), name) {
			return nil, unknownArchitecture(name)
		}
		out = append(out, name)
	}
	return out, nil
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
