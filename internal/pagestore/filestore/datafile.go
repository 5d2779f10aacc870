package filestore

// data.db encoding and the fsync plumbing around it. The page file is only
// ever replaced wholesale — write data.db.tmp, fsync, rename, fsync the
// directory — so a reader either sees the old complete image or the new
// complete image, never a torn one. Per-record checksums still guard
// against media corruption.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"

	"repro/internal/pagestore"
)

// dataHdrLen is magic(8) + foldSeq(8) + pageSize(4) + count(4).
const dataHdrLen = 24

// encodeDataFile serializes the full page image, pages in ascending id
// order so the bytes are deterministic for a given state.
func encodeDataFile(pages *pagestore.Table[pagestore.PageID, pagestore.Page], foldSeq uint64, pageSize int) []byte {
	ids := pages.Keys()
	out := make([]byte, 0, dataHdrLen)
	out = append(out, dataMagic[:]...)
	out = binary.BigEndian.AppendUint64(out, foldSeq)
	out = binary.BigEndian.AppendUint32(out, uint32(pageSize))
	out = binary.BigEndian.AppendUint32(out, uint32(len(ids)))
	for _, id := range ids {
		p := pages.Get(id)
		start := len(out)
		out = binary.BigEndian.AppendUint64(out, uint64(id))
		out = binary.BigEndian.AppendUint64(out, p.Version)
		out = binary.BigEndian.AppendUint32(out, uint32(len(p.Data)))
		out = append(out, p.Data...)
		out = binary.BigEndian.AppendUint32(out, crc32.ChecksumIEEE(out[start:]))
	}
	return out
}

// loadDataFile reads the page file into pages; a missing file is an empty
// store. Each page aliases the one buffer the file is read into. Any damage
// here is unrecoverable corruption (the atomic-replace discipline means a
// crash can never tear this file), reported as ErrCorrupt.
func loadDataFile(path string, pageSize int, pages *pagestore.Table[pagestore.PageID, pagestore.Page]) (uint64, error) {
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	if len(raw) < dataHdrLen || [8]byte(raw[:8]) != dataMagic {
		return 0, fmt.Errorf("%w: %s: bad header", ErrCorrupt, dataName)
	}
	foldSeq := binary.BigEndian.Uint64(raw[8:16])
	if got := int(binary.BigEndian.Uint32(raw[16:20])); got != pageSize {
		return 0, fmt.Errorf("%w: %s: page size %d, store expects %d",
			ErrCorrupt, dataName, got, pageSize)
	}
	count := int(binary.BigEndian.Uint32(raw[20:24]))
	off := dataHdrLen
	for i := 0; i < count; i++ {
		if len(raw)-off < 24 {
			return 0, fmt.Errorf("%w: %s: short page record %d", ErrCorrupt, dataName, i)
		}
		id := pagestore.PageID(binary.BigEndian.Uint64(raw[off : off+8]))
		version := binary.BigEndian.Uint64(raw[off+8 : off+16])
		n := int(binary.BigEndian.Uint32(raw[off+16 : off+20]))
		if n > pageSize || len(raw)-off < 20+n+4 {
			return 0, fmt.Errorf("%w: %s: short page %d data", ErrCorrupt, dataName, id)
		}
		end := off + 20 + n
		want := binary.BigEndian.Uint32(raw[end : end+4])
		if crc32.ChecksumIEEE(raw[off:end]) != want {
			return 0, fmt.Errorf("%w: %s: page %d checksum mismatch", ErrCorrupt, dataName, id)
		}
		*pages.Put(id) = pagestore.Page{Data: raw[off+20 : end : end], Version: version}
		off = end + 4
	}
	if off != len(raw) {
		return 0, fmt.Errorf("%w: %s: %d trailing bytes", ErrCorrupt, dataName, len(raw)-off)
	}
	return foldSeq, nil
}

// writeFileSync writes data to path and fsyncs it before returning.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// syncDir fsyncs a directory so a just-renamed entry is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		d.Close()
		return err
	}
	return d.Close()
}
