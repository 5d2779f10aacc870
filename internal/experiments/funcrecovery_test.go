package experiments

import (
	"testing"

	"repro/internal/engine"
)

// TestFuncRecoveryCountsStableIO: FUNCRECOVERY's restart columns are the
// stores' own operation counts. Version selection reads every version block
// stored when the power was cut, plus its timestamp page, and a WAL reads at
// least every page its log store holds.
func TestFuncRecoveryCountsStableIO(t *testing.T) {
	for _, n := range []int{12, 200} {
		tab, err := FuncRecovery(Options{NumTxns: n, Jobs: 1})
		if err != nil {
			t.Fatal(err)
		}
		for i, arch := range engine.Architectures() {
			if name := tab.Rows[i][0]; name != arch {
				t.Fatalf("row %d is %q, want %q", i, name, arch)
			}
			_, stores, err := funcRecoveryRun(arch, n)
			if err != nil {
				t.Fatal(err)
			}
			switch {
			case arch == "verselect":
				blocks := 0
				for _, id := range stores[0].Keys() {
					if id >= 0 { // negative ids are metadata
						blocks++
					}
				}
				if got := cell(tab, i, 2); got != float64(blocks+1) {
					t.Errorf("%d txns: %s restart read %v data pages; %d version blocks were stored, want %d", n, arch, got, blocks, blocks+1)
				}
			case len(stores) == 2:
				if got, chunks := cell(tab, i, 4), stores[1].Pages(); got < float64(chunks) {
					t.Errorf("%d txns: %s restart read %v log pages; %d were stored", n, arch, got, chunks)
				}
			}
		}
	}
}
