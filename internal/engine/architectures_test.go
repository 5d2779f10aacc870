package engine

import (
	"errors"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/pagestore"
	"repro/internal/pagestore/filestore"
	"repro/internal/wal"
)

// TestBuild builds every architecture on memory and on file-backed stores
// and pins what each build is: the kernel, and the stores it opened, in
// role order with their page sizes.
func TestBuild(t *testing.T) {
	kernelNames := map[string]string{
		"wal-1stream":  "wal(1 streams,page-mod)",
		"wal-3streams": "wal(3 streams,page-mod)",
		"shadow":       "shadow(page-table)",
		"ow-noundo":    "shadow(overwrite-no-undo)",
		"ow-noredo":    "shadow(overwrite-no-redo)",
		"verselect":    "shadow(version-selection)",
		"difffile":     "difffile",
	}
	if got := Architectures(); len(got) != len(kernelNames) {
		t.Fatalf("Architectures() = %v, want the %d of the table", got, len(kernelNames))
	}
	openers := map[string]func(t *testing.T) func(string, int) (*pagestore.Store, error){
		"memory": func(*testing.T) func(string, int) (*pagestore.Store, error) {
			return func(_ string, pageSize int) (*pagestore.Store, error) { return pagestore.New(pageSize), nil }
		},
		"file": func(t *testing.T) func(string, int) (*pagestore.Store, error) {
			dir := t.TempDir()
			return func(role string, pageSize int) (*pagestore.Store, error) {
				return filestore.Open(filepath.Join(dir, role), pageSize)
			}
		},
	}
	for medium, opener := range openers {
		for _, arch := range Architectures() {
			t.Run(medium+"/"+arch, func(t *testing.T) {
				open := opener(t)
				var roles []string
				e, stores, err := Build(arch, 0, func(role string, pageSize int) (*pagestore.Store, error) {
					roles = append(roles, role)
					return open(role, pageSize)
				})
				if err != nil {
					t.Fatal(err)
				}
				defer func() {
					for _, s := range stores {
						s.Close()
					}
				}()
				if got, want := e.Name(), kernelNames[arch]; got != want {
					t.Errorf("kernel = %q, want %q", got, want)
				}
				wantRoles, wantSizes := []string{"data"}, []int{4096}
				if arch == "wal-1stream" || arch == "wal-3streams" {
					wantRoles, wantSizes = []string{"data", "log"}, []int{4096, wal.LogChunkSize}
				}
				if !reflect.DeepEqual(roles, wantRoles) {
					t.Errorf("opened %v, want %v", roles, wantRoles)
				}
				var sizes []int
				for _, s := range stores {
					sizes = append(sizes, s.PageSize())
				}
				if !reflect.DeepEqual(sizes, wantSizes) {
					t.Errorf("store page sizes %v, want %v", sizes, wantSizes)
				}
				if err := e.Load(1, []byte("x")); err != nil {
					t.Errorf("load: %v", err)
				}
			})
		}
	}

	// A failed build hands back what it opened, for release.
	boom := errors.New("no log device")
	_, stores, err := Build("wal-1stream", 0, func(role string, pageSize int) (*pagestore.Store, error) {
		if role == "log" {
			return nil, boom
		}
		return pagestore.New(pageSize), nil
	})
	if !errors.Is(err, boom) || len(stores) != 1 || stores[0].PageSize() != 4096 {
		t.Errorf("log open failure: err %v, %d stores; want %v and the data store", err, len(stores), boom)
	}

	opened := false
	_, _, err = Build("nope", 0, func(string, int) (*pagestore.Store, error) {
		opened = true
		return nil, nil
	})
	if err == nil || opened {
		t.Errorf(`Build("nope") = %v, opened a store: %v`, err, opened)
	}
}

// TestSelect resolves architecture lists without building engines; an
// unknown name fails with the same error Build gives for it.
func TestSelect(t *testing.T) {
	_, _, unknown := Build("nope", 0, nil)
	if unknown == nil {
		t.Fatal(`Build("nope") succeeded`)
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
		got, err := Select(tc.sel)
		if tc.wantErr != "" {
			if err == nil || err.Error() != tc.wantErr {
				t.Errorf("Select(%q) error = %v, want %q", tc.sel, err, tc.wantErr)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("Select(%q) = %v, %v; want %v", tc.sel, got, err, tc.want)
		}
	}
}
