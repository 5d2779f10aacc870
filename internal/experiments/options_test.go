package experiments

import (
	"reflect"
	"testing"

	"repro/internal/machine"
)

// TestOptionsSentinels pins the Options resolution rules: zero means
// "use the machine.DefaultConfig value", any other value is taken as is.
func TestOptionsSentinels(t *testing.T) {
	def := machine.DefaultConfig()
	if def.Seed != 1985 {
		t.Fatalf("machine default seed moved to %d; update this test and the Options docs", def.Seed)
	}

	cases := []struct {
		name     string
		opt      Options
		wantTxns int
		wantSeed int64
	}{
		{"zero value keeps defaults", Options{}, def.NumTxns, 1985},
		{"legacy sentinel: Seed 0 resolves to 1985", Options{Seed: 0}, def.NumTxns, 1985},
		{"explicit seed", Options{Seed: 7}, def.NumTxns, 7},
		{"explicit txns", Options{NumTxns: 12}, 12, 1985},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.opt.apply(machine.DefaultConfig())
			if cfg.NumTxns != tc.wantTxns || cfg.Seed != tc.wantSeed {
				t.Fatalf("apply(%+v) -> txns=%d seed=%d, want txns=%d seed=%d",
					tc.opt, cfg.NumTxns, cfg.Seed, tc.wantTxns, tc.wantSeed)
			}
		})
	}
}

// TestDefaultOptionsResolved: the zero value is the default form of Options.
// It resolves to machine.DefaultConfig field for field, and overriding a
// field back to zero keeps that field's default.
func TestDefaultOptionsResolved(t *testing.T) {
	def := machine.DefaultConfig()
	if cfg := (Options{}).apply(machine.DefaultConfig()); !reflect.DeepEqual(cfg, def) {
		t.Fatalf("Options{} resolves to %+v, want machine.DefaultConfig %+v", cfg, def)
	}
	opt := Options{NumTxns: 12, Seed: 7}
	opt.Seed = 0
	cfg := opt.apply(machine.DefaultConfig())
	if cfg.Seed != def.Seed || cfg.NumTxns != 12 {
		t.Fatalf("Seed overridden to 0 resolves to txns=%d seed=%d, want 12/%d",
			cfg.NumTxns, cfg.Seed, def.Seed)
	}
}
