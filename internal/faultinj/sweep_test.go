package faultinj

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/engine"
)

// quickOpt keeps unit-test sweeps fast; the full stride-1 sweep runs in
// cmd/crashsweep (and in make crashsweep-short on CI).
var quickOpt = Options{Seed: 42, Every: 5}

func TestPayloadRoundTrip(t *testing.T) {
	v := Payload(7, 12, 3)
	if msg := CheckPayload(v, 7); msg != "" {
		t.Fatalf("fresh payload rejected: %s", msg)
	}
	if msg := CheckPayload(v, 8); msg == "" {
		t.Fatal("payload accepted for the wrong page")
	}
	corrupt := append([]byte(nil), v...)
	corrupt[0] ^= 0xff
	if msg := CheckPayload(corrupt, 7); msg == "" {
		t.Fatal("corrupted payload passed its checksum")
	}
	// A torn page: one version's body with another version's checksum tail.
	v1, v2 := Payload(7, 12, 3), Payload(7, 99, 1)
	torn := append(append([]byte(nil), v1[:len(v1)-9]...), v2[len(v2)-9:]...)
	if msg := CheckPayload(torn, 7); msg == "" {
		t.Fatal("torn payload (two versions spliced) passed its checksum")
	}
}

// TestSweepAllTargets is the tentpole regression: every audit must pass at
// every enumerated crash point, for every recovery architecture, including
// the re-crash-during-recovery points.
func TestSweepAllTargets(t *testing.T) {
	for _, tg := range Targets() {
		tg := tg
		t.Run(tg.Name, func(t *testing.T) {
			rep, err := SweepTarget(tg, quickOpt)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range rep.Failures {
				t.Error(f)
			}
			if rep.Points == 0 {
				t.Fatal("no crash points enumerated")
			}
			if rep.Recrashes == 0 {
				t.Error("no recovery was ever re-crashed; idempotence under " +
					"mid-recovery crashes went unexercised")
			}
			if rep.Commits == 0 {
				t.Error("no point run committed anything; the workload is too weak")
			}
		})
	}
}

// TestSweepFindsInDoubtCommits checks the sweep actually lands crashes
// inside commit processing somewhere: with stride 1 on the WAL engine, some
// point must leave a commit in doubt (that is the hard recovery case).
func TestSweepFindsInDoubtCommits(t *testing.T) {
	tg := Targets()[0] // wal-1stream
	rep, err := SweepTarget(tg, Options{Seed: 42, Every: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.DoubtApplied+rep.DoubtReverted == 0 {
		t.Error("stride-1 sweep never crashed inside a commit")
	}
	for _, f := range rep.Failures {
		t.Error(f)
	}
}

// TestReportByteIdentical is the determinism acceptance criterion: two
// sweeps with the same seed must render byte-identical reports.
func TestReportByteIdentical(t *testing.T) {
	render := func() []byte {
		t.Helper()
		rep, err := Sweep(Targets(), quickOpt)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := rep.Render(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := render(), render()
	if !bytes.Equal(a, b) {
		t.Fatalf("same-seed reports differ:\n--- first\n%s\n--- second\n%s", a, b)
	}
	if !strings.Contains(string(a), "PASS") {
		t.Fatalf("report did not pass:\n%s", a)
	}
}

func TestTargetsByName(t *testing.T) {
	got, err := TargetsByName("shadow, difffile")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Name != "shadow" || got[1].Name != "difffile" {
		t.Fatalf("selection = %+v", got)
	}
	if _, err := TargetsByName("nope"); err == nil {
		t.Fatal("unknown engine accepted")
	}
	all, err := TargetsByName("all")
	if err != nil || len(all) != len(Targets()) {
		t.Fatalf("all = %d targets, %v", len(all), err)
	}
	// One list of names drives dbserver, crashsweep and recover.
	var names []string
	for _, tg := range Targets() {
		names = append(names, tg.Name)
	}
	if want := engine.Architectures(); !reflect.DeepEqual(names, want) {
		t.Fatalf("target names = %v, engine architectures = %v", names, want)
	}
}
