package ingest

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

func testSub(t *testing.T, grid int) *Submission {
	t.Helper()
	sub, err := Compile(reduceRequest(grid), Limits{}, time.Unix(1700000000, 0))
	if err != nil {
		t.Fatalf("Compile grid=%d: %v", grid, err)
	}
	return sub
}

func TestStoreLRUCountBudget(t *testing.T) {
	clk := time.Unix(1700000000, 0)
	s, err := NewStore(StoreConfig{
		MaxCount: 2,
		Now:      func() time.Time { return clk },
	})
	if err != nil {
		t.Fatal(err)
	}
	a, b, c := testSub(t, 1), testSub(t, 2), testSub(t, 3)
	for _, sub := range []*Submission{a, b} {
		sub.CreatedAt = clk
		if existing, err := s.Put(sub); err != nil || existing {
			t.Fatalf("Put %s: existing %v, %v", sub.ID, existing, err)
		}
	}
	if _, err := s.Get(a.ID); err != nil { // refresh a: b becomes LRU
		t.Fatal(err)
	}
	c.CreatedAt = clk
	if _, err := s.Put(c); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(b.ID); err == nil {
		t.Fatal("evicted submission still resident")
	}
	for _, sub := range []*Submission{a, c} {
		if _, err := s.Get(sub.ID); err != nil {
			t.Fatalf("resident submission evicted: %v", err)
		}
	}
	if n, _, ev := s.Stats(); n != 2 || ev != 1 {
		t.Fatalf("count = %d, evictions = %d; want 2 and 1", n, ev)
	}
	if existing, err := s.Put(a); err != nil || !existing {
		t.Fatalf("re-Put of a resident id: existing %v, %v", existing, err)
	}
}

func TestStoreTTL(t *testing.T) {
	clk := time.Unix(1700000000, 0)
	s, err := NewStore(StoreConfig{
		TTL: time.Hour,
		Now: func() time.Time { return clk },
	})
	if err != nil {
		t.Fatal(err)
	}
	sub := testSub(t, 1)
	sub.CreatedAt = clk
	if _, err := s.Put(sub); err != nil {
		t.Fatal(err)
	}
	clk = clk.Add(59 * time.Minute)
	if _, err := s.Get(sub.ID); err != nil {
		t.Fatalf("expired early: %v", err)
	}
	clk = clk.Add(2 * time.Minute)
	if _, err := s.Get(sub.ID); err == nil {
		t.Fatal("submission survived its TTL")
	}
	if n, _, ev := s.Stats(); n != 0 || ev != 1 {
		t.Fatalf("count = %d, evictions = %d; want 0 and 1", n, ev)
	}
}

func TestStorePersistenceAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	clk := time.Unix(1700000000, 0)
	now := func() time.Time { return clk }
	s, err := NewStore(StoreConfig{Dir: dir, Now: now})
	if err != nil {
		t.Fatal(err)
	}
	a, b := testSub(t, 1), testSub(t, 2)
	a.CreatedAt, b.CreatedAt = clk, clk
	if _, err := s.Put(a); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put(b); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(s.SlotPath(a.ID)); err != nil {
		t.Fatalf("slot not persisted: %v", err)
	}

	// A corrupt slot and an alien file must not break the reload.
	if err := os.WriteFile(filepath.Join(dir, IDPrefix+"deadbeefdeadbeef.json"), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := NewStore(StoreConfig{Dir: dir, Now: now})
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	for _, id := range []string{a.ID, b.ID} {
		got, err := s2.Get(id)
		if err != nil {
			t.Fatalf("lost %s across restart: %v", id, err)
		}
		if got.Kernel != "reduce64" || len(got.Container) == 0 {
			t.Fatalf("reloaded submission mangled: %+v", got)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, IDPrefix+"deadbeefdeadbeef.json")); !os.IsNotExist(err) {
		t.Fatal("corrupt slot not cleaned up")
	}

	// Expired entries are dropped at reload time.
	clk = clk.Add(DefaultTTL + time.Minute)
	s3, err := NewStore(StoreConfig{Dir: dir, Now: now})
	if err != nil {
		t.Fatal(err)
	}
	if n, _, _ := s3.Stats(); n != 0 {
		t.Fatalf("expired submissions reloaded: %d", n)
	}
}

func TestStoreDelete(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStore(StoreConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	sub := testSub(t, 1)
	sub.CreatedAt = time.Now()
	if _, err := s.Put(sub); err != nil {
		t.Fatal(err)
	}
	if !s.Delete(sub.ID) {
		t.Fatal("Delete reported miss")
	}
	if s.Delete(sub.ID) {
		t.Fatal("double delete reported hit")
	}
	if _, err := os.Stat(s.SlotPath(sub.ID)); !os.IsNotExist(err) {
		t.Fatal("slot survived delete")
	}
	if got := s.List(); len(got) != 0 {
		t.Fatalf("List after delete: %d", len(got))
	}
}

func TestStoreByteBudget(t *testing.T) {
	a, b := testSub(t, 1), testSub(t, 2)
	budget := a.weight() + b.weight() - 1 // room for one and a bit
	s, err := NewStore(StoreConfig{MaxBytes: budget})
	if err != nil {
		t.Fatal(err)
	}
	a.CreatedAt, b.CreatedAt = time.Now(), time.Now()
	if _, err := s.Put(a); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put(b); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(a.ID); err == nil {
		t.Fatal("byte budget not enforced")
	}
	if _, err := s.Get(b.ID); err != nil {
		t.Fatalf("newest submission evicted: %v", err)
	}
}
