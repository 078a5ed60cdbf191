package ingest

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func testSub(t testing.TB, grid int) *Submission {
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

// TestStoreExpiryFollowsCreatedAt: expiry goes by each submission's
// latest CreatedAt, whatever the LRU order and admission order. A
// re-Put refreshes A's clock, and C arrives after the clock stepped
// back to before every resident; C and then B expire first, while A,
// the least recently admitted and most recently used, stays.
func TestStoreExpiryFollowsCreatedAt(t *testing.T) {
	t0 := time.Unix(1700000000, 0)
	clk := t0
	s, err := NewStore(StoreConfig{
		TTL: time.Hour,
		Now: func() time.Time { return clk },
	})
	if err != nil {
		t.Fatal(err)
	}
	a, b, c := testSub(t, 1), testSub(t, 2), testSub(t, 3)
	put := func(sub *Submission, created time.Time, wantExisting bool) {
		t.Helper()
		clk = created
		sub.CreatedAt = created
		if existing, err := s.Put(sub); err != nil || existing != wantExisting {
			t.Fatalf("Put %s: existing %v, %v", sub.ID, existing, err)
		}
	}
	put(a, t0, false)
	put(b, t0.Add(time.Minute), false)
	refreshed := *a
	put(&refreshed, t0.Add(2*time.Minute), true)
	put(c, t0.Add(-30*time.Second), false)

	clk = t0.Add(time.Hour - 15*time.Second) // past C's TTL only
	if _, err := s.Get(c.ID); err == nil {
		t.Error("C survived its TTL")
	}
	if n, _, _ := s.Stats(); n != 2 { // Stats leaves the LRU order as it is
		t.Errorf("%d resident past C's TTL; want A and B", n)
	}
	clk = t0.Add(time.Hour + 75*time.Second) // past B's TTL, not A's refreshed one
	if _, err := s.Get(b.ID); err == nil {
		t.Error("B survived its TTL")
	}
	if _, err := s.Get(a.ID); err != nil {
		t.Errorf("A expired before its refreshed TTL: %v", err)
	}
	if n, _, ev := s.Stats(); n != 1 || ev != 2 {
		t.Fatalf("count = %d, evictions = %d; want 1 and 2", n, ev)
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
	if fi, err := os.Stat(s.SlotPath(a.ID)); err != nil {
		t.Fatalf("slot not persisted: %v", err)
	} else if m := fi.Mode().Perm(); m != 0o600 {
		t.Errorf("submission slot mode %v, want -rw-------", m)
	}

	// A corrupt slot, a version-1 slot (the bare {"version","submission"}
	// form earlier builds wrote) and an alien file must not break the
	// reload; both slots are dropped.
	if err := os.WriteFile(filepath.Join(dir, IDPrefix+"deadbeefdeadbeef.json"), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	c := testSub(t, 3)
	c.CreatedAt = clk
	v1, err := json.Marshal(map[string]any{"version": 1, "submission": c})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.SlotPath(c.ID), v1, 0o600); err != nil {
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
	for _, id := range []string{IDPrefix + "deadbeefdeadbeef", c.ID} {
		if _, err := os.Stat(s.SlotPath(id)); !os.IsNotExist(err) {
			t.Fatalf("slot %s not cleaned up", id)
		}
	}
	if _, err := s2.Get(c.ID); err == nil {
		t.Fatal("version-1 slot loaded")
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

// BenchmarkStoreGet times the lookup every request naming a submission
// makes, with one resident and with the default MaxCount resident.
func BenchmarkStoreGet(b *testing.B) {
	base := testSub(b, 1)
	base.CreatedAt = time.Now()
	for _, n := range []int{1, DefaultMaxCount} {
		b.Run(fmt.Sprintf("residents=%d", n), func(b *testing.B) {
			s, err := NewStore(StoreConfig{})
			if err != nil {
				b.Fatal(err)
			}
			var id string
			for i := 0; i < n; i++ {
				sub := *base
				sub.ID = fmt.Sprintf("%s%016x", IDPrefix, i)
				if _, err := s.Put(&sub); err != nil {
					b.Fatal(err)
				}
				id = sub.ID
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Get(id); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
