package pagestore

// File-operation-granularity fault injection. The page-level FaultHook cuts
// power BETWEEN logical operations; a file-backed store additionally has
// interesting failure points INSIDE one logical operation — between the
// write and its fsync, halfway through the bytes of a record, at the fsync
// barrier itself. Backends with a real file surface implement
// FileInjectable and present every file operation to an installed FileHook,
// which chooses a fault for that exact point. The in-memory backend has no
// file surface; SetFileHook reports whether the hook was accepted.

// FileOp identifies a file-level operation presented to a FileHook.
type FileOp uint8

// The file operations a FileHook observes.
const (
	// FileAppend appends one mutation record to the on-disk write-ahead
	// log.
	FileAppend FileOp = iota
	// FileSync is the fsync barrier that makes preceding appends durable.
	FileSync
	// FilePageWrite writes the folded page-file image (the checkpoint that
	// lets the log be truncated). It is made atomic by write-to-temp +
	// fsync + rename.
	FilePageWrite
	// FileTruncate truncates the on-disk log after a successful fold.
	FileTruncate
)

// String implements fmt.Stringer.
func (o FileOp) String() string {
	switch o {
	case FileAppend:
		return "append"
	case FileSync:
		return "sync"
	case FilePageWrite:
		return "pagewrite"
	case FileTruncate:
		return "truncate"
	}
	return "fileop?"
}

// FileFault is a FileHook's verdict for one file operation.
type FileFault uint8

const (
	// FileOK performs the operation normally.
	FileOK FileFault = iota
	// FileCrash cuts power immediately before the operation: none of its
	// bytes reach the medium.
	FileCrash
	// FileTorn cuts power midway through the operation's bytes: a strict
	// prefix of the record persists (a torn page write). Recovery must
	// detect the torn tail by checksum and discard it. For operations
	// with no byte payload (FileSync, FileTruncate) it degrades to
	// FileCrash.
	FileTorn
	// FileLostSync cuts power at the fsync barrier: the preceding
	// unsynced bytes are dropped from the device cache and the sync never
	// completes. The write was never acknowledged, so losing it is
	// contract-clean — recovery simply must cope, exactly as with
	// FileCrash at the same point. For non-sync operations it degrades to
	// FileCrash.
	FileLostSync
	// FileSkipSync models a lying device: the fsync is ACKNOWLEDGED but
	// not performed, so a later power cut silently loses an acknowledged
	// write. This violates the stable-storage contract by construction —
	// it exists so tests can prove the recovery audits detect the
	// violation, and must never appear in a sweep that is expected to
	// pass.
	FileSkipSync
)

// String implements fmt.Stringer.
func (f FileFault) String() string {
	switch f {
	case FileOK:
		return "ok"
	case FileCrash:
		return "crash"
	case FileTorn:
		return "torn"
	case FileLostSync:
		return "lostsync"
	case FileSkipSync:
		return "skipsync"
	}
	return "fault?"
}

// A FileHook is consulted before every file operation of a file-backed
// store. name is the file being operated on (relative to the store's
// directory); seq is the backend's monotone file-operation sequence number
// (1-based over the store's whole lifetime — power cycles do not rewind
// it). The hook runs with the store's lock held and must not call back
// into the store. Like the page-level FaultHook, it survives Reset.
type FileHook func(op FileOp, name string, seq int64) FileFault

// FileInjectable is implemented by backends with a real file surface
// (internal/pagestore/filestore).
type FileInjectable interface {
	SetFileHook(FileHook)
	FileOps() int64
}

// SetFileHook installs (or, with nil, removes) a file-operation fault hook
// on the store's backend. It reports false when the backend has no file
// surface (the in-memory store), true when the hook is armed.
func (s *Store) SetFileHook(h FileHook) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	fi, ok := s.be.(FileInjectable)
	if !ok {
		return false
	}
	fi.SetFileHook(h)
	return true
}
