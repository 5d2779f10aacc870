package server

import (
	"reflect"
	"testing"
)

// TestEnginesByName resolves architecture lists without building engines;
// an unknown name fails with the same error NewEngine gives for it.
func TestEnginesByName(t *testing.T) {
	_, unknown := NewEngine("nope")
	if unknown == nil {
		t.Fatal(`NewEngine("nope") succeeded`)
	}
	for _, tc := range []struct {
		sel     string
		want    []string
		wantErr string
	}{
		{sel: "", want: Architectures()},
		{sel: "all", want: Architectures()},
		{sel: " wal-1stream, difffile ", want: []string{"wal-1stream", "difffile"}},
		{sel: "nope", wantErr: unknown.Error()},
	} {
		got, err := EnginesByName(tc.sel)
		if tc.wantErr != "" {
			if err == nil || err.Error() != tc.wantErr {
				t.Errorf("EnginesByName(%q) error = %v, want %q", tc.sel, err, tc.wantErr)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("EnginesByName(%q) = %v, %v; want %v", tc.sel, got, err, tc.want)
		}
	}
}
