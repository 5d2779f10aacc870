package obs

import (
	"bytes"
	"strings"
	"testing"
)

func TestJournalNilSafe(t *testing.T) {
	var j *Journal
	j.Emit(JournalRecord{Event: "redo"}) // must not panic
	if j.Len() != 0 || j.Records() != nil {
		t.Fatalf("nil journal not empty: len=%d", j.Len())
	}
	j.Reset()
	var buf bytes.Buffer
	if err := j.WriteJSONL(&buf); err != nil || buf.Len() != 0 {
		t.Fatalf("nil journal rendered %q, err %v", buf.String(), err)
	}
}

// TestNilJournalEmitPageAllocatesNothing: kernels emit a page event on every
// steal and every load, so with no journal attached that must cost nothing,
// page 0 included; attached, page 0 still renders.
func TestNilJournalEmitPageAllocatesNothing(t *testing.T) {
	var j *Journal
	if n := testing.AllocsPerRun(100, func() { j.EmitPage(0, JournalRecord{Event: "steal", LSN: 7}) }); n != 0 {
		t.Fatalf("EmitPage on a nil journal allocates %.0f times", n)
	}
	j = NewJournal()
	j.EmitPage(0, JournalRecord{Event: "steal", LSN: 7})
	var buf bytes.Buffer
	if err := j.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if want := `{"seq":0,"event":"steal","page":0,"lsn":7}` + "\n"; buf.String() != want {
		t.Fatalf("got %q, want %q", buf.String(), want)
	}
}

func TestJournalOrderAndJSONL(t *testing.T) {
	j := NewJournal()
	j.Emit(JournalRecord{Event: "scan", Engine: "wal(1 streams,page-mod)", N: 12})
	j.Emit(JournalRecord{Event: "winner", Txn: 3})
	j.EmitPage(5, JournalRecord{Event: "redo", Txn: 3, LSN: 9, Note: "clr"})
	if j.Len() != 3 {
		t.Fatalf("Len = %d, want 3", j.Len())
	}
	for i, r := range j.Records() {
		if r.Seq != int64(i) {
			t.Errorf("record %d has Seq %d", i, r.Seq)
		}
	}
	var buf bytes.Buffer
	if err := j.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	want := `{"seq":0,"event":"scan","engine":"wal(1 streams,page-mod)","n":12}
{"seq":1,"event":"winner","txn":3}
{"seq":2,"event":"redo","txn":3,"page":5,"lsn":9,"note":"clr"}
`
	if buf.String() != want {
		t.Errorf("JSONL mismatch\n--- got ---\n%s--- want ---\n%s", buf.String(), want)
	}

	// Byte-determinism: rendering twice is identical.
	var again bytes.Buffer
	if err := j.WriteJSONL(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Error("two renders of the same journal differ")
	}

	j.Reset()
	if j.Len() != 0 {
		t.Errorf("Len after Reset = %d", j.Len())
	}
	j.Emit(JournalRecord{Event: "undo"})
	if got := j.Records()[0].Seq; got != 0 {
		t.Errorf("Seq restarts at %d after Reset, want 0", got)
	}
}

func TestJournalOmitsZeroFields(t *testing.T) {
	j := NewJournal()
	j.Emit(JournalRecord{Event: "merge"})
	var buf bytes.Buffer
	if err := j.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	line := strings.TrimSpace(buf.String())
	if line != `{"seq":0,"event":"merge"}` {
		t.Errorf("zero fields not omitted: %s", line)
	}
}
