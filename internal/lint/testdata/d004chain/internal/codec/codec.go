// Package codec is an in-scope helper importing only the standard
// library: clean to import from the kernel.
//
//simlint:path internal/codec
package codec

import "hash/crc32"

// Sum checksums b.
func Sum(b []byte) int64 { return int64(crc32.ChecksumIEEE(b)) }
