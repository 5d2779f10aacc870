// Package fixture pins internal/pagestore/filestore's side of the D004
// boundary: the file-backed stable-storage backend is wrapper-layer code.
// It owns the os.File handles, fsync barriers, and crash-truncation
// bookkeeping that make the pagestore durable, and it is serialized by the
// owning pagestore.Store — kernel code never touches a file directly, it
// reaches the disk only through *pagestore.Store. The D004 kernel scope
// must not grow to cover it. If filestore is ever pulled into the
// kernel allowlist, this fixture fails.
//
//simlint:path internal/pagestore/filestore
package fixture

import "os"

// backend mirrors the real backend's shape: an append-only log file plus
// the synced frontier that power-off truncates back to.
type backend struct {
	wal    *os.File
	synced int64
}

// appendRec writes one record and fsyncs — the append → fsync →
// acknowledge ordering the durability contract hangs on. Real file I/O
// belongs here, below the Store and never in a kernel.
func (b *backend) appendRec(rec []byte) error {
	if _, err := b.wal.Write(rec); err != nil {
		return err
	}
	if err := b.wal.Sync(); err != nil {
		return err
	}
	b.synced += int64(len(rec))
	return nil
}

// powerOff truncates the unsynced tail, exactly as the real backend does.
func (b *backend) powerOff() error {
	if err := b.wal.Truncate(b.synced); err != nil {
		return err
	}
	return b.wal.Sync()
}
