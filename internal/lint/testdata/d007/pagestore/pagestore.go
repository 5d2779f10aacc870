// Package pagestore is a stand-in for the thread-safe stable-storage
// substrate; the base name is what makes the D007 exemption apply.
//
//simlint:path internal/pagestore
package pagestore

// Store is safe for concurrent use by contract.
type Store struct{ n int64 }

// Len reports the number of pages.
func (s *Store) Len() int64 { return s.n }
