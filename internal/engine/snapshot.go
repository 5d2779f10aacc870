package engine

// Point-in-time backup and restore for any recovery architecture. Every
// kernel exposes its stable stores through the Snapshotter seam; the Guard
// serializes a snapshot against running transactions exactly like any
// other kernel call, so a backup taken mid-load is a transaction-
// consistent image of whatever the architecture keeps on stable storage —
// home pages AND the recovery structures (log chunks, intent records,
// differential files) that make in-flight work undoable/redoable. A
// restore therefore finishes with restart recovery: the restored bytes are
// treated like a machine that lost power at the snapshot instant.
//
// An archive multiplexes one pagestore snapshot blob per store:
//
//	magic   "GDSNAP1\n" (8 bytes)
//	kind    u8: 'F' full, 'I' incremental
//	nstores u32
//	  per store: u32 blob length · blob (see pagestore/snapshot.go)
//
// Incremental archives chain off the manifests the previous snapshot
// returned; ArchiveManifests recomputes manifests from archive files alone
// so chains survive process restarts.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/lockmgr"
	"repro/internal/obs"
	"repro/internal/obs/live"
	"repro/internal/pagestore"
)

var archiveMagic = [8]byte{'G', 'D', 'S', 'N', 'A', 'P', '1', '\n'}

const (
	archiveFull = 'F'
	archiveIncr = 'I'
)

// Snapshotter is implemented by kernels that expose their stable stores
// for backup (all seven architectures do).
type Snapshotter interface {
	Stores() []*pagestore.Store
}

// Snapshot writes a point-in-time archive of every stable store of the
// wrapped kernel to w and returns one manifest per store. base nil takes a
// full snapshot; base non-nil (the manifests returned by the previous
// snapshot in the chain, or by ArchiveManifests) takes an incremental one.
// The call runs under the guard lock, so the image is transaction-
// consistent. Returns ErrUnsupported for kernels without stable stores.
func (g *Guard) Snapshot(w io.Writer, base []pagestore.Manifest) ([]pagestore.Manifest, error) {
	tok := g.lock(live.GuardOther)
	defer g.unlock(&tok)
	sn, ok := g.rm.(Snapshotter)
	if !ok {
		return nil, ErrUnsupported
	}
	stores := sn.Stores()
	if base != nil && len(base) != len(stores) {
		return nil, fmt.Errorf("engine: snapshot base has %d manifests, kernel has %d stores",
			len(base), len(stores))
	}
	kind := byte(archiveFull)
	note := "full"
	if base != nil {
		kind = archiveIncr
		note = "incremental"
	}
	manifests := make([]pagestore.Manifest, len(stores))
	blobs := make([][]byte, len(stores))
	var pages int64
	for i, st := range stores {
		var b pagestore.Manifest
		if base != nil {
			b = base[i]
			if b == nil {
				b = pagestore.Manifest{}
			}
		}
		var buf bytes.Buffer
		m, err := st.WriteSnapshot(&buf, b)
		if err != nil {
			return nil, fmt.Errorf("engine: snapshot store %d: %w", i, err)
		}
		manifests[i] = m
		blobs[i] = buf.Bytes()
		pages += int64(len(m))
	}
	if err := writeArchive(w, kind, blobs); err != nil {
		return nil, err
	}
	g.journal.Emit(obs.JournalRecord{
		Event: "snapshot", Engine: g.rm.Name(), N: pages, Note: note,
	})
	return manifests, nil
}

// Restore applies a backup chain — one full archive followed by zero or
// more incrementals, in order — to the kernel's stable stores, then runs
// crash-restart recovery so the kernel rebuilds its volatile state from
// the restored bytes (in-flight transactions of the snapshot instant roll
// back or forward exactly as a power failure at that instant would). All
// under the guard lock. Returns ErrUnsupported for kernels without stable
// stores.
func (g *Guard) Restore(rs ...io.Reader) error {
	tok := g.lock(live.GuardOther)
	defer g.unlock(&tok)
	sn, ok := g.rm.(Snapshotter)
	if !ok {
		return ErrUnsupported
	}
	if len(rs) == 0 {
		return fmt.Errorf("engine: restore needs at least one archive")
	}
	stores := sn.Stores()
	for i, r := range rs {
		kind, blobs, err := readArchive(r)
		if err != nil {
			return fmt.Errorf("engine: restore archive %d: %w", i, err)
		}
		if i == 0 && kind != archiveFull {
			return fmt.Errorf("engine: restore archive 0 must be a full snapshot")
		}
		if i > 0 && kind != archiveIncr {
			return fmt.Errorf("engine: restore archive %d must be incremental", i)
		}
		if len(blobs) != len(stores) {
			return fmt.Errorf("engine: restore archive %d has %d stores, kernel has %d",
				i, len(blobs), len(stores))
		}
		for j, blob := range blobs {
			if err := stores[j].ApplySnapshot(bytes.NewReader(blob)); err != nil {
				return fmt.Errorf("engine: restore archive %d store %d: %w", i, j, err)
			}
		}
	}
	g.journal.Emit(obs.JournalRecord{
		Event: "restore", Engine: g.rm.Name(), N: int64(len(rs)),
	})
	g.rm.Crash()
	return g.rm.Recover()
}

// Snapshot takes a full point-in-time backup of the engine (see
// Guard.Snapshot).
func (e *Engine) Snapshot(w io.Writer) ([]pagestore.Manifest, error) {
	return e.rm.Snapshot(w, nil)
}

// SnapshotSince takes an incremental backup relative to base (see
// Guard.Snapshot).
func (e *Engine) SnapshotSince(w io.Writer, base []pagestore.Manifest) ([]pagestore.Manifest, error) {
	return e.rm.Snapshot(w, base)
}

// Restore applies a backup chain and re-runs recovery (see Guard.Restore).
// The lock table is reset along with the rest of volatile state.
func (e *Engine) Restore(rs ...io.Reader) error {
	if err := e.rm.Restore(rs...); err != nil {
		return err
	}
	e.locks = lockmgr.New()
	return nil
}

// ArchiveManifests folds a backup chain's archives (full first, then
// incrementals, in order) into the per-store manifests of the state the
// chain describes — without touching any store. Use it to resume an
// incremental chain in a new process: feed the result to SnapshotSince.
func ArchiveManifests(rs ...io.Reader) ([]pagestore.Manifest, error) {
	if len(rs) == 0 {
		return nil, fmt.Errorf("engine: manifests need at least one archive")
	}
	var manifests []pagestore.Manifest
	for i, r := range rs {
		kind, blobs, err := readArchive(r)
		if err != nil {
			return nil, fmt.Errorf("engine: archive %d: %w", i, err)
		}
		if i == 0 {
			if kind != archiveFull {
				return nil, fmt.Errorf("engine: archive 0 must be a full snapshot")
			}
			manifests = make([]pagestore.Manifest, len(blobs))
		} else if kind != archiveIncr {
			return nil, fmt.Errorf("engine: archive %d must be incremental", i)
		} else if len(blobs) != len(manifests) {
			return nil, fmt.Errorf("engine: archive %d has %d stores, chain has %d",
				i, len(blobs), len(manifests))
		}
		for j, blob := range blobs {
			m, err := pagestore.SnapshotManifest(bytes.NewReader(blob), manifests[j])
			if err != nil {
				return nil, fmt.Errorf("engine: archive %d store %d: %w", i, j, err)
			}
			manifests[j] = m
		}
	}
	return manifests, nil
}

func writeArchive(w io.Writer, kind byte, blobs [][]byte) error {
	hdr := make([]byte, 0, 13)
	hdr = append(hdr, archiveMagic[:]...)
	hdr = append(hdr, kind)
	hdr = binary.BigEndian.AppendUint32(hdr, uint32(len(blobs)))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	for _, blob := range blobs {
		var n [4]byte
		binary.BigEndian.PutUint32(n[:], uint32(len(blob)))
		if _, err := w.Write(n[:]); err != nil {
			return err
		}
		if _, err := w.Write(blob); err != nil {
			return err
		}
	}
	return nil
}

func readArchive(r io.Reader) (byte, [][]byte, error) {
	var hdr [13]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, fmt.Errorf("short archive header: %w", err)
	}
	if [8]byte(hdr[:8]) != archiveMagic {
		return 0, nil, fmt.Errorf("bad archive magic")
	}
	kind := hdr[8]
	if kind != archiveFull && kind != archiveIncr {
		return 0, nil, fmt.Errorf("unknown archive kind %q", kind)
	}
	// The store count and blob lengths are read from the archive, so the
	// blobs grow with the bytes actually read, never sized by a header.
	n := int(binary.BigEndian.Uint32(hdr[9:13]))
	var blobs [][]byte
	for i := 0; i < n; i++ {
		var ln [4]byte
		if _, err := io.ReadFull(r, ln[:]); err != nil {
			return 0, nil, fmt.Errorf("short blob %d length: %w", i, err)
		}
		want := int64(binary.BigEndian.Uint32(ln[:]))
		blob, err := io.ReadAll(io.LimitReader(r, want))
		if err == nil && int64(len(blob)) < want {
			err = io.ErrUnexpectedEOF
		}
		if err != nil {
			return 0, nil, fmt.Errorf("short blob %d: %w", i, err)
		}
		// A full archive of incremental blobs would patch a store it
		// claims to replace.
		full, err := pagestore.SnapshotFull(blob)
		if err != nil {
			return 0, nil, fmt.Errorf("blob %d: %w", i, err)
		}
		if full != (kind == archiveFull) {
			return 0, nil, fmt.Errorf("blob %d is not of its archive's kind %q", i, kind)
		}
		blobs = append(blobs, blob)
	}
	return kind, blobs, nil
}
