// Package obs is a stand-in for the observation layer; the base name
// plus the Journal.Emit method identity is what the D008 journal-sink
// detector keys on.
//
//simlint:path internal/obs
package obs

// Record is one journal entry.
type Record struct{ Event string }

// Journal is the sanctioned ordered sink.
type Journal struct{ recs []Record }

// Emit appends a record (nil-safe).
func (j *Journal) Emit(r Record) {
	if j == nil {
		return
	}
	j.recs = append(j.recs, r)
}
