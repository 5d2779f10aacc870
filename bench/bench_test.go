package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/server"
)

// The benchmark's engine builder must stay in step with the server's: the
// same seven architectures, the same kernel under each name.
func TestBuildEngineMatchesServer(t *testing.T) {
	for _, arch := range server.Architectures() {
		want, err := server.NewEngine(arch)
		if err != nil {
			t.Fatal(err)
		}
		for _, dir := range []string{"", t.TempDir()} {
			r, err := buildEngine(arch, dir, nil)
			if err != nil {
				t.Fatalf("%s (dir %q): %v", arch, dir, err)
			}
			if got := r.eng.Name(); got != want.Name() {
				t.Errorf("%s (dir %q): engine %q, server.NewEngine builds %q", arch, dir, got, want.Name())
			}
			r.close()
		}
	}
	if _, err := buildEngine("no-such-arch", "", nil); err == nil {
		t.Error("an architecture the server does not know was built")
	}
}

// Every workload passes its audits on memory and on files, untraced and
// traced, and the traced repeat yields exactly the workload's own per-layer
// metrics.
func TestSmokeEveryWorkload(t *testing.T) {
	own := map[string]bool{}
	for _, def := range perLayer {
		if !strings.HasPrefix(def.name, "arch.") && def.name != "trace.overhead_share" && def.name != "device.fsync_us_p50" {
			own[def.name] = true
		}
	}
	for _, w := range workloads {
		for _, file := range []bool{false, true} {
			for _, traced := range []bool{false, true} {
				w := w
				w.file = file
				cfg := repeatConfig{w: w, arch: benchArch, dir: t.TempDir(), seed: 7, clients: 2,
					warmup: 20 * time.Millisecond, slice: 200 * time.Millisecond, txns: 200, traced: traced}
				r, err := runRepeat(cfg)
				if err != nil {
					t.Fatalf("%s file=%v traced=%v: %v", w.name, file, traced, err)
				}
				if r.commits == 0 || r.auditedPage != w.pages {
					t.Errorf("%s file=%v: %d commits, %d pages audited", w.name, file, r.commits, r.auditedPage)
				}
				for name, v := range endToEndOf(r) {
					if v <= 0 {
						t.Errorf("%s file=%v: end-to-end metric %s is %v, must be positive", w.name, file, name, v)
					}
				}
				if !traced {
					continue
				}
				got := layersOf(r, w.tcp)
				for name := range got {
					if !own[name] {
						t.Errorf("%s: undeclared per-layer metric %s", w.name, name)
					}
				}
				for name := range own {
					if _, ok := got[name]; !ok {
						t.Errorf("%s: per-layer metric %s missing", w.name, name)
					}
				}
				if share := got["trace.self_sum_share"]; share < 0.9 || share > 1.1 {
					t.Errorf("%s file=%v: layer self times add up to %.3f of the transaction time", w.name, file, share)
				}
			}
		}
	}
}

// The traced run emits every per-layer metric, the architecture pass included.
func TestTracedRunEmitsEveryLayerMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and audits all seven architectures on files")
	}
	w, _ := workloadByName("wire-uniform")
	sw, err := runWorkload(w, options{seed: 7, seconds: 0.6, dir: t.TempDir()}, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(sw.Metrics) != len(perLayer) {
		t.Errorf("%d per-layer metrics emitted, %d declared", len(sw.Metrics), len(perLayer))
	}
}

func TestCompare(t *testing.T) {
	set := func(scale float64) resultSet {
		ws := setWorkload{Metrics: map[string]setMetric{}}
		for _, def := range endToEnd {
			v := 100.0
			if def.name == "txn_per_s" {
				v *= scale
			}
			ws.Metrics[def.name] = setMetric{Value: v, Unit: def.unit, Better: def.better, Bound: def.bound, Q1: v * 0.99, Q3: v * 1.01, Min: v * 0.98, Max: v * 1.02, N: 12}
		}
		return resultSet{Workloads: map[string]setWorkload{"wire-uniform": ws}}
	}
	var out bytes.Buffer
	if compareSets(&out, set(1), set(1)) {
		t.Errorf("an identical pair was flagged:\n%s", out.String())
	}
	if strings.Contains(out.String(), string(unresolved)) {
		t.Errorf("tight ranges reported as unresolved:\n%s", out.String())
	}
	// txn_per_s is held to 25%: a 30% drop is a regression, a 30% gain is not.
	out.Reset()
	if !compareSets(&out, set(1), set(0.70)) {
		t.Errorf("a 30%% drop in txn_per_s was not flagged:\n%s", out.String())
	}
	out.Reset()
	if compareSets(&out, set(1), set(1.30)) {
		t.Errorf("a 30%% gain in txn_per_s was flagged:\n%s", out.String())
	}

	// Repeats spread wider than the bound cannot show a change of that size.
	tight := set(1).Workloads["wire-uniform"].Metrics["txn_per_s"]
	wide := tight
	wide.Q1, wide.Q3 = wide.Value*0.8, wide.Value*1.2
	if _, v := judge(wide, tight); v != unresolved {
		t.Errorf("quartiles wider than the bound judged %s, want %s", v, unresolved)
	}
	slow := wide
	slow.Value *= 0.7
	if _, v := judge(wide, slow); v != unresolved {
		t.Errorf("a drop inside the other set's quartiles judged %s, want %s", v, unresolved)
	}
}

// BENCHMARK.json at the root repeats the tables in this package; the two must
// not drift apart.
func TestManifestMatchesCode(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var manifest struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(blob))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&manifest); err != nil {
		t.Fatal(err)
	}
	if len(manifest.Paths) != 1 || manifest.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", manifest.Paths)
	}
	if manifest.RunSeconds < 1 || manifest.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", manifest.RunSeconds)
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n, u string) {
		if !name.MatchString(n) || !unit.MatchString(u) {
			t.Errorf("metric %q with unit %q breaks the contract's character rules", n, u)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	if len(manifest.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(manifest.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := manifest.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, code has %q: %q", i, got, w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
		check(w.name, "count")
	}
	if len(manifest.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in code", len(manifest.EndToEnd), len(endToEnd))
	}
	for i, def := range endToEnd {
		got := manifest.EndToEnd[i]
		if got.Name != def.name || got.Unit != def.unit || got.Better != def.better || got.Bound != def.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, code has %+v", i, got, def)
		}
		if def.bound <= 0 || def.bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", def.name, def.bound)
		}
		check(def.name, def.unit)
	}
	if len(manifest.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in code", len(manifest.PerLayer), len(perLayer))
	}
	for i, def := range perLayer {
		got := manifest.PerLayer[i]
		if got.Name != def.name || got.Unit != def.unit || got.Better != def.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, code has %+v", i, got, def)
		}
		check(def.name, def.unit)
	}
}
