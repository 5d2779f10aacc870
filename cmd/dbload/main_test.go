package main

import (
	"testing"

	"repro/internal/engine"
)

// TestRunSelfHostedAllArchitectures drives every architecture through an
// in-process server at a small size, as `make serve-smoke` does at a larger
// one: each row must commit every transaction and keep the bank's balance.
func TestRunSelfHostedAllArchitectures(t *testing.T) {
	opt := options{Sessions: 8, Txns: 2, Pages: 32, Value: 1000, Seed: 1}
	rows, err := run("", "all", opt, "")
	if err != nil {
		t.Fatal(err)
	}
	archs := engine.Architectures()
	if len(rows) != len(archs) {
		t.Fatalf("%d rows, want one per architecture (%d)", len(rows), len(archs))
	}
	for i, r := range rows {
		if r.Name != archs[i] {
			t.Errorf("row %d is %q, want %q", i, r.Name, archs[i])
		}
		if r.Txns != int64(opt.Sessions*opt.Txns) {
			t.Errorf("%s: %d transactions committed, want %d", r.Name, r.Txns, opt.Sessions*opt.Txns)
		}
		if !r.Consistent || r.BalanceSum != int64(opt.Pages)*opt.Value {
			t.Errorf("%s: balance sum %d, want %d", r.Name, r.BalanceSum, int64(opt.Pages)*opt.Value)
		}
	}
}

// TestRunRejectsBadArguments: exactly one of an address and an engine list,
// and at least two pages for a transfer.
func TestRunRejectsBadArguments(t *testing.T) {
	opt := options{Sessions: 1, Txns: 1, Pages: 32, Value: 1000, Seed: 1}
	if _, err := run("", "", opt, ""); err == nil {
		t.Error("neither -addr nor -engines: no error")
	}
	if _, err := run("127.0.0.1:1", "all", opt, ""); err == nil {
		t.Error("both -addr and -engines: no error")
	}
	opt.Pages = 1
	if _, err := run("", "all", opt, ""); err == nil {
		t.Error("-pages 1: no error")
	}
}
