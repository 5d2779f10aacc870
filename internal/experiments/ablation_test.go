package experiments

import (
	"strconv"
	"testing"
)

func TestMPLSweepShape(t *testing.T) {
	tab, err := MPLSweep(quickOpt)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 || len(tab.Rows[0]) != 6 {
		t.Fatalf("shape %dx%d", len(tab.Rows), len(tab.Rows[0]))
	}
	// Throughput improves (exec/page falls) from MPL=1 to MPL=3 for the
	// I/O-bound random configurations.
	if cell(tab, 0, 3) > cell(tab, 0, 1) {
		t.Errorf("MPL=3 (%.1f) slower than MPL=1 (%.1f)", cell(tab, 0, 3), cell(tab, 0, 1))
	}
}

func TestFrameSweepShape(t *testing.T) {
	tab, err := FrameSweep(quickOpt)
	if err != nil {
		t.Fatal(err)
	}
	// Parallel-sequential benefits most from more frames (bigger batches).
	if cell(tab, 3, 3) > cell(tab, 3, 1) {
		t.Errorf("parallel-sequential got slower with more frames: %.2f vs %.2f",
			cell(tab, 3, 3), cell(tab, 3, 1))
	}
}

func TestFragmentSweepShape(t *testing.T) {
	tab, err := FragmentSweep(quickOpt)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tab.Rows {
		small, big := cell(tab, i, 1), cell(tab, i, 4)
		if big < small {
			t.Errorf("row %d: log util fell with bigger fragments: %.2f -> %.2f", i, small, big)
		}
	}
}

func TestSkewSweepShape(t *testing.T) {
	tab, err := SkewSweep(quickOpt)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	waits := func(row int) int64 {
		v, err := strconv.ParseInt(tab.Rows[row][3], 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	// Heavy skew must produce more lock conflicts than uniform access.
	if waits(2) <= waits(0) {
		t.Errorf("skew 2.0 waits (%d) not above uniform (%d)", waits(2), waits(0))
	}
}

func TestFuncRecoveryShape(t *testing.T) {
	tab, err := FuncRecovery(Options{NumTxns: 40})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 7 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// The WAL engines must report real restart I/O on both stores; shadow
	// restart reads its root and page table and writes nothing.
	col := func(row, c int) int64 {
		v, _ := strconv.ParseInt(tab.Rows[row][c], 10, 64)
		return v
	}
	if col(0, 4) == 0 {
		t.Error("wal-1stream read no log pages at restart")
	}
	if col(0, 2) == 0 {
		t.Error("wal-1stream read no data pages at restart")
	}
	if col(2, 2) > 2 || col(2, 3) != 0 || tab.Rows[2][4] != "-" {
		t.Errorf("shadow restart: %v, want at most a root and a page-table read, no write, no log store", tab.Rows[2])
	}
	if tab.Rows[6][0] != "difffile" {
		t.Fatalf("row 6 = %q, want difffile", tab.Rows[6][0])
	}
	if col(6, 2) == 0 {
		t.Error("difffile read no differential chunks at restart")
	}

	// With wall-clock gone the whole table is deterministic: a second run
	// must reproduce it cell for cell.
	again, err := FuncRecovery(Options{NumTxns: 40})
	if err != nil {
		t.Fatal(err)
	}
	for i := range tab.Rows {
		for j := range tab.Rows[i] {
			if tab.Rows[i][j] != again.Rows[i][j] {
				t.Errorf("cell [%d][%d] not deterministic: %q vs %q",
					i, j, tab.Rows[i][j], again.Rows[i][j])
			}
		}
	}
}

func TestRegistryIncludesExtensions(t *testing.T) {
	ids := IDs()
	want := map[string]bool{"mpl": true, "frames": true, "fragsize": true,
		"skew": true, "funcrecovery": true}
	found := 0
	for _, id := range ids {
		if want[id] {
			found++
		}
	}
	if found != len(want) {
		t.Fatalf("extensions missing from registry: %v", ids)
	}
}
