package obs

import (
	"bytes"
	"testing"

	"repro/internal/sim"
)

func TestCounter(t *testing.T) {
	eng := sim.New()
	r := NewRegistry(eng)
	c := r.Counter("io.reads")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	if r.Counter("io.reads") != c {
		t.Fatal("Counter with same name returned a different instance")
	}
	if s := r.Snapshot(); s.Counters["io.reads"] != 5 {
		t.Fatalf("snapshot counter = %d, want 5", s.Counters["io.reads"])
	}
}

func TestGaugeTimeWeighted(t *testing.T) {
	eng := sim.New()
	r := NewRegistry(eng)
	g := r.Gauge("cache.used")
	eng.At(0, func() { g.Set(10) })
	eng.At(100, func() { g.Set(30) })
	eng.RunUntil(200)
	// 10 for [0,100), 30 for [100,200): mean 20.
	if g.Value() != 30 {
		t.Errorf("gauge value = %v, want 30", g.Value())
	}
	if g.Mean() != 20 {
		t.Errorf("gauge mean = %v, want 20", g.Mean())
	}
	if g.Max() != 30 {
		t.Errorf("gauge max = %v, want 30", g.Max())
	}
}

func TestRegisterGaugeAdoption(t *testing.T) {
	eng := sim.New()
	r := NewRegistry(eng)
	tw := sim.NewTimeWeighted(eng)
	g := r.RegisterGauge("disk.busy", tw)
	tw.Set(1) // mutate through the component's own tracker
	if g.Value() != 1 {
		t.Fatal("registered gauge does not share the component tracker")
	}
	if r.RegisterGauge("disk.busy", tw) != g {
		t.Fatal("re-registering the same tracker returned a new gauge")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("registering a different tracker under an existing name should panic")
		}
	}()
	r.RegisterGauge("disk.busy", sim.NewTimeWeighted(eng))
}

func TestFuncLazyEvaluation(t *testing.T) {
	eng := sim.New()
	r := NewRegistry(eng)
	calls := 0
	r.Func("model.stat", func() float64 { calls++; return 42 })
	if calls != 0 {
		t.Fatal("stat func evaluated before Snapshot")
	}
	s := r.Snapshot()
	if calls != 1 {
		t.Fatalf("stat func evaluated %d times, want 1", calls)
	}
	if s.Stats["model.stat"] != 42 {
		t.Fatalf("stat = %v, want 42", s.Stats["model.stat"])
	}
	r.PutStat("model.direct", 7)
	if s2 := r.Snapshot(); s2.Stats["model.direct"] != 7 {
		t.Fatalf("direct stat = %v, want 7", s2.Stats["model.direct"])
	}
}

func TestSnapshotJSONDeterministic(t *testing.T) {
	build := func() []byte {
		eng := sim.New()
		r := NewRegistry(eng)
		// Insert names in different orders across metric kinds; JSON output
		// must still be identical because map keys are sorted on encode.
		r.Counter("z.count").Add(3)
		r.Counter("a.count").Add(1)
		r.Gauge("m.gauge").Set(2.5)
		h := r.Histogram("lat.ms")
		h.Observe(1.5)
		h.Observe(800)
		r.Func("u.func", func() float64 { return 0.75 })
		r.PutStat("s.stat", 9)
		eng.RunUntil(sim.Ms(10))
		b, err := r.Snapshot().JSON()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := build(), build()
	if !bytes.Equal(a, b) {
		t.Fatalf("identical registries produced different JSON:\n%s\n---\n%s", a, b)
	}
	// Names appear in sorted order regardless of registration order.
	if !bytes.Contains(a, []byte("\"a.count\": 1,\n    \"z.count\": 3")) {
		t.Fatalf("counters missing or unsorted: %s", a)
	}
}
