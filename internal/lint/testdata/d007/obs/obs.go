// Package obs is a stand-in for the deterministic observation layer;
// the base name is what makes the D007 exemption apply.
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
