package pagestore

// Point-in-time snapshots of a single store. A snapshot blob is a
// self-describing byte stream: a full blob carries every page; an
// incremental blob carries the pages that changed relative to a base
// manifest plus the ids deleted since. Every page record carries a crc32
// checksum, so a restore verifies byte integrity record by record, and a
// manifest carries the same checksums so incremental chains can be
// composed and audited without touching a store.
//
// Snapshots are backup-plane operations, deliberately OUTSIDE the
// crash-sweep operation sequence: WriteSnapshot reads and ApplySnapshot
// writes through the backend directly (a file-backed store still performs
// real durable I/O), without consulting the page-level FaultHook, so
// arming a sweep does not perturb backups and vice versa. Both still
// refuse to touch a crashed store.
//
// Blob layout (big-endian):
//
//	magic   "PSSNAP1\n" (8 bytes)
//	kind    u8: 'F' full, 'I' incremental
//	pageSz  u32
//	nputs   u32
//	  per put: id i64 · version u64 · len u32 · data · crc u32
//	           (crc32-IEEE over id‖version‖len‖data as encoded)
//	ndels   u32 (always 0 in a full blob)
//	  per del: id i64
//	delcrc  u32 (crc32-IEEE over the encoded del ids)

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sort"
)

var snapMagic = [8]byte{'P', 'S', 'S', 'N', 'A', 'P', '1', '\n'}

const (
	snapFull = 'F'
	snapIncr = 'I'
)

// ErrSnapshotCorrupt is wrapped by every snapshot decode failure.
var ErrSnapshotCorrupt = errors.New("pagestore: snapshot corrupt")

// PageMeta is one page's identity in a Manifest: its version word and the
// crc32-IEEE checksum of its contents.
type PageMeta struct {
	Version uint64
	CRC     uint32
}

// Manifest maps every page of a snapshotted state to its meta. A manifest
// is the composition key for incremental chains: WriteSnapshot(w, base)
// emits exactly the records needed to take a restorer from base to the
// store's current state.
type Manifest map[PageID]PageMeta

// Clone returns a copy of m.
func (m Manifest) Clone() Manifest {
	out := make(Manifest, len(m))
	for id, pm := range m {
		out[id] = pm
	}
	return out
}

// putRecord encodes one page record (without the crc trailer).
func putRecord(buf []byte, id PageID, version uint64, data []byte) []byte {
	buf = binary.BigEndian.AppendUint64(buf, uint64(id))
	buf = binary.BigEndian.AppendUint64(buf, version)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(data)))
	buf = append(buf, data...)
	return buf
}

// WriteSnapshot writes a snapshot of the store's current pages to w and
// returns the manifest of that state. base nil requests a full snapshot;
// base non-nil requests an incremental snapshot relative to base (pages
// whose version or checksum differ, plus deletions). The store must be
// live (not crashed, not closed).
func (s *Store) WriteSnapshot(w io.Writer, base Manifest) (Manifest, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	if s.crashed {
		return nil, ErrCrashed
	}

	ids := s.be.Keys()

	manifest := make(Manifest, len(ids))
	var puts []PageID
	for _, id := range ids {
		data, version, ok := s.be.Get(id)
		if !ok {
			return nil, fmt.Errorf("pagestore: snapshot: page %d vanished mid-scan", id)
		}
		pm := PageMeta{Version: version, CRC: crc32.ChecksumIEEE(data)}
		manifest[id] = pm
		if bm, ok := base[id]; base == nil || !ok || bm != pm {
			puts = append(puts, id)
		}
	}
	var dels []PageID
	if base != nil {
		for id := range base {
			if !s.be.Has(id) {
				dels = append(dels, id)
			}
		}
		sort.Slice(dels, func(i, j int) bool { return dels[i] < dels[j] })
	}

	bw := bufio.NewWriter(w)
	bw.Write(snapMagic[:])
	kind := byte(snapFull)
	if base != nil {
		kind = snapIncr
	}
	bw.WriteByte(kind)
	var hdr [8]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(s.pageSize))
	binary.BigEndian.PutUint32(hdr[4:], uint32(len(puts)))
	bw.Write(hdr[:])
	var rec []byte
	for _, id := range puts {
		data, version, _ := s.be.Get(id)
		rec = putRecord(rec[:0], id, version, data)
		bw.Write(rec)
		var crc [4]byte
		binary.BigEndian.PutUint32(crc[:], crc32.ChecksumIEEE(rec))
		bw.Write(crc[:])
	}
	var cnt [4]byte
	binary.BigEndian.PutUint32(cnt[:], uint32(len(dels)))
	bw.Write(cnt[:])
	delBytes := make([]byte, 0, 8*len(dels))
	for _, id := range dels {
		delBytes = binary.BigEndian.AppendUint64(delBytes, uint64(id))
	}
	bw.Write(delBytes)
	var dcrc [4]byte
	binary.BigEndian.PutUint32(dcrc[:], crc32.ChecksumIEEE(delBytes))
	bw.Write(dcrc[:])
	if err := bw.Flush(); err != nil {
		return nil, err
	}
	return manifest, nil
}

// readN reads exactly n bytes from r. It allocates as the bytes arrive, not
// up front, so a corrupt length allocates no more than the input holds.
func readN(r io.Reader, n int64) ([]byte, error) {
	b, err := io.ReadAll(io.LimitReader(r, n))
	if err == nil && int64(len(b)) < n {
		err = io.ErrUnexpectedEOF
	}
	return b, err
}

// snapDecoder streams one snapshot blob. Its counts come from the blob, so
// nothing is sized by them before the records they count have been read.
type snapDecoder struct {
	r        *bufio.Reader
	kind     byte
	pageSize int
	nputs    int
}

func openSnapshot(r io.Reader) (*snapDecoder, error) {
	br := bufio.NewReader(r)
	var hdr [17]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: short header: %v", ErrSnapshotCorrupt, err)
	}
	if [8]byte(hdr[:8]) != snapMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrSnapshotCorrupt)
	}
	kind := hdr[8]
	if kind != snapFull && kind != snapIncr {
		return nil, fmt.Errorf("%w: unknown kind %q", ErrSnapshotCorrupt, kind)
	}
	return &snapDecoder{
		r:        br,
		kind:     kind,
		pageSize: int(binary.BigEndian.Uint32(hdr[9:13])),
		nputs:    int(binary.BigEndian.Uint32(hdr[13:17])),
	}, nil
}

// SnapshotFull reports whether blob is a full snapshot rather than an
// incremental one, checking only its header.
func SnapshotFull(blob []byte) (bool, error) {
	d, err := openSnapshot(bytes.NewReader(blob))
	if err != nil {
		return false, err
	}
	return d.kind == snapFull, nil
}

// readPut decodes the next page record, verifying its crc.
func (d *snapDecoder) readPut() (PageID, uint64, []byte, error) {
	var fixed [20]byte
	if _, err := io.ReadFull(d.r, fixed[:]); err != nil {
		return 0, 0, nil, fmt.Errorf("%w: short page record: %v", ErrSnapshotCorrupt, err)
	}
	n := binary.BigEndian.Uint32(fixed[16:20])
	if int(n) > d.pageSize {
		return 0, 0, nil, fmt.Errorf("%w: record length %d exceeds page size %d",
			ErrSnapshotCorrupt, n, d.pageSize)
	}
	rest, err := readN(d.r, int64(n)+4)
	if err != nil {
		return 0, 0, nil, fmt.Errorf("%w: short page data: %v", ErrSnapshotCorrupt, err)
	}
	data := rest[:n]
	crc := crc32.ChecksumIEEE(fixed[:])
	crc = crc32.Update(crc, crc32.IEEETable, data)
	if got := binary.BigEndian.Uint32(rest[n:]); got != crc {
		return 0, 0, nil, fmt.Errorf("%w: page %d checksum mismatch",
			ErrSnapshotCorrupt, int64(binary.BigEndian.Uint64(fixed[:8])))
	}
	id := PageID(binary.BigEndian.Uint64(fixed[:8]))
	version := binary.BigEndian.Uint64(fixed[8:16])
	return id, version, data, nil
}

// readDels decodes and verifies the deletion section.
func (d *snapDecoder) readDels() ([]PageID, error) {
	var cnt [4]byte
	if _, err := io.ReadFull(d.r, cnt[:]); err != nil {
		return nil, fmt.Errorf("%w: short del count: %v", ErrSnapshotCorrupt, err)
	}
	n := int(binary.BigEndian.Uint32(cnt[:]))
	raw, err := readN(d.r, 8*int64(n))
	if err != nil {
		return nil, fmt.Errorf("%w: short del section: %v", ErrSnapshotCorrupt, err)
	}
	var crc [4]byte
	if _, err := io.ReadFull(d.r, crc[:]); err != nil {
		return nil, fmt.Errorf("%w: short del checksum: %v", ErrSnapshotCorrupt, err)
	}
	if binary.BigEndian.Uint32(crc[:]) != crc32.ChecksumIEEE(raw) {
		return nil, fmt.Errorf("%w: del section checksum mismatch", ErrSnapshotCorrupt)
	}
	out := make([]PageID, n)
	for i := range out {
		out[i] = PageID(binary.BigEndian.Uint64(raw[8*i:]))
	}
	return out, nil
}

// ApplySnapshot applies one snapshot blob to the store: a full blob
// replaces the store's contents wholesale; an incremental blob patches
// them (and must be applied on top of the state its base manifest
// described). Every record's checksum is verified before any byte is
// written, then the mutations go through the backend — on a file-backed
// store the restore is itself durable. The store must be live.
func (s *Store) ApplySnapshot(r io.Reader) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.crashed {
		return ErrCrashed
	}
	d, err := openSnapshot(r)
	if err != nil {
		return err
	}
	if d.pageSize != s.pageSize {
		return fmt.Errorf("%w: snapshot page size %d, store page size %d",
			ErrSnapshotCorrupt, d.pageSize, s.pageSize)
	}
	type put struct {
		id      PageID
		version uint64
		data    []byte
	}
	var puts []put
	for i := 0; i < d.nputs; i++ {
		id, version, data, err := d.readPut()
		if err != nil {
			return err
		}
		puts = append(puts, put{id: id, version: version, data: data})
	}
	dels, err := d.readDels()
	if err != nil {
		return err
	}
	if d.kind == snapFull {
		if len(dels) != 0 {
			return fmt.Errorf("%w: full snapshot with %d deletions", ErrSnapshotCorrupt, len(dels))
		}
		keep := make(map[PageID]bool, len(puts))
		for _, p := range puts {
			keep[p.id] = true
		}
		for _, id := range s.be.Keys() {
			if !keep[id] {
				if err := s.be.Del(id); err != nil {
					return s.backendErr(err)
				}
			}
		}
	}
	for _, p := range puts {
		if err := s.be.Put(p.id, p.data, p.version); err != nil {
			return s.backendErr(err)
		}
	}
	for _, id := range dels {
		if err := s.be.Del(id); err != nil {
			return s.backendErr(err)
		}
	}
	return nil
}

// SnapshotManifest folds blob r into base without a store: it returns the
// manifest of the state that applying r on top of base would produce
// (verifying every record checksum on the way). For a full blob, base is
// ignored. Use it to chain incremental backups: the manifest of snapshot
// N is the base for snapshot N+1.
func SnapshotManifest(r io.Reader, base Manifest) (Manifest, error) {
	d, err := openSnapshot(r)
	if err != nil {
		return nil, err
	}
	var out Manifest
	if d.kind == snapFull {
		out = make(Manifest)
	} else {
		out = base.Clone()
	}
	for i := 0; i < d.nputs; i++ {
		id, version, data, err := d.readPut()
		if err != nil {
			return nil, err
		}
		out[id] = PageMeta{Version: version, CRC: crc32.ChecksumIEEE(data)}
	}
	dels, err := d.readDels()
	if err != nil {
		return nil, err
	}
	for _, id := range dels {
		delete(out, id)
	}
	return out, nil
}
