// Package pagestore is a stand-in for the stable-storage substrate; the
// base name plus the Store.Write / Store.Delete method identities are
// what the D008 stable-mutation detector keys on.
//
//simlint:path internal/pagestore
package pagestore

// Store is the stable-storage stand-in.
type Store struct {
	pages map[int64][]byte
}

// Write persists data under page p.
func (s *Store) Write(p int64, data []byte) error {
	if s.pages == nil {
		s.pages = make(map[int64][]byte)
	}
	s.pages[p] = append([]byte(nil), data...)
	return nil
}

// Delete drops page p.
func (s *Store) Delete(p int64) error {
	delete(s.pages, p)
	return nil
}

// Read returns a copy of page p.
func (s *Store) Read(p int64) ([]byte, error) {
	return append([]byte(nil), s.pages[p]...), nil
}
