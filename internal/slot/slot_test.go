package slot

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
)

type payload struct {
	Name  string    `json:"name"`
	Curve []float64 `json:"curve"`
}

// TestRoundTrip: Write creates nested directories, applies its mode
// and replaces a corrupt file; Read returns the body written.
func TestRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "a", "b")
	want := payload{Name: "gtx285", Curve: []float64{0.5, 1, 2.25}}
	for _, perm := range []os.FileMode{0o644, 0o600} {
		if err := Write(dir, "cal-x", 2, "x", want, perm); err != nil {
			t.Fatal(err)
		}
		if fi, err := os.Stat(Path(dir, "cal-x")); err != nil {
			t.Fatal(err)
		} else if m := fi.Mode().Perm(); m != perm {
			t.Errorf("slot mode %v, want %v", m, perm)
		}
	}
	if err := os.WriteFile(Path(dir, "cal-x"), []byte("{corrupt"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := Write(dir, "cal-x", 2, "x", want, 0o644); err != nil {
		t.Fatal(err)
	}
	var got payload
	if !Read(dir, "cal-x", 2, "x", &got) {
		t.Fatal("miss on the slot just written")
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("read %+v, want %+v", got, want)
	}
	var raw []byte
	if err := Write(dir, "res-k", 2, "k", []byte{0, 1, 0xff}, 0o644); err != nil {
		t.Fatal(err)
	}
	if !Read(dir, "res-k", 2, "k", &raw) || string(raw) != "\x00\x01\xff" {
		t.Errorf("byte body read back as %q", raw)
	}
}

// TestMisses: every failure to find the written body is a miss.
func TestMisses(t *testing.T) {
	dir := t.TempDir()
	if err := Write(dir, "good", 2, "k", payload{Name: "n"}, 0o644); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(Path(dir, "good"))
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{
		"garbage":   []byte("not json at all"),
		"truncated": good[:len(good)/2],
		"empty":     {},
		"no-body":   []byte(`{"version":2,"key":"k"}`),
		"bare":      []byte(`{"version":2,"name":"n"}`),
	}
	for name, data := range files {
		if err := os.WriteFile(Path(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var p payload
	var n int
	cases := []struct {
		what, dir, name string
		version         int
		key             string
		body            any
	}{
		{"missing file", dir, "absent", 2, "k", &p},
		{"missing directory", filepath.Join(dir, "nope"), "good", 2, "k", &p},
		{"garbage", dir, "garbage", 2, "k", &p},
		{"truncated", dir, "truncated", 2, "k", &p},
		{"empty", dir, "empty", 2, "k", &p},
		{"no body", dir, "no-body", 2, "k", &p},
		{"no envelope", dir, "bare", 2, "k", &p},
		{"another version", dir, "good", 1, "k", &p},
		{"another key", dir, "good", 2, "other", &p},
		{"body of the wrong JSON type", dir, "good", 2, "k", &n},
	}
	for _, c := range cases {
		if Read(c.dir, c.name, c.version, c.key, c.body) {
			t.Errorf("%s read as a hit", c.what)
		}
	}
	if !Read(dir, "good", 2, "k", &p) || p.Name != "n" {
		t.Error("the control slot missed")
	}
}

// TestFailedWriteLeavesNoTemp: a write whose rename fails, here onto a
// directory in the slot's place, reports the error and leaves no temp
// file behind.
func TestFailedWriteLeavesNoTemp(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(Path(dir, "cal-x"), "sub"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := Write(dir, "cal-x", 2, "x", payload{Name: "n"}, 0o644); err == nil {
		t.Fatal("write over a directory succeeded")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "cal-x.json" {
		t.Errorf("want only the directory in the slot's place, got %v", entries)
	}
}

// TestConcurrentWriters: writers racing on one slot leave exactly one
// readable file and no temp file.
func TestConcurrentWriters(t *testing.T) {
	dir := t.TempDir()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := Write(dir, "cal-x", 2, "x", payload{Name: fmt.Sprint(i)}, 0o644); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	var p payload
	if !Read(dir, "cal-x", 2, "x", &p) {
		t.Fatal("miss after concurrent writes")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "cal-x.json" {
		t.Errorf("want one slot file, got %v", entries)
	}
}
