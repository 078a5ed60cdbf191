package resultstore

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gpuperf/internal/slot"
)

var errPeekMiss = errors.New("peek: miss")

// peek probes key through Do with a computation that fails, so a miss
// stores nothing; ok reports a memory or disk hit.
func peek(s *Store, key string) (body []byte, st Status, ok bool) {
	body, st, err := s.Do(context.Background(), key, func() ([]byte, error) { return nil, errPeekMiss })
	return body, st, err == nil
}

// TestMemoryLRUEviction: the memory tier respects its byte budget by
// evicting least-recently-used entries, and a touched entry survives
// the eviction of a colder one.
func TestMemoryLRUEviction(t *testing.T) {
	s := New(Config{MemoryBytes: 100})
	body := bytes.Repeat([]byte("x"), 40)
	s.Put("a", body)
	s.Put("b", body)
	// Touch "a" so "b" is the eviction candidate.
	if _, _, ok := peek(s, "a"); !ok {
		t.Fatal("a missing before eviction")
	}
	s.Put("c", body) // 120 bytes > 100: evict LRU ("b")
	if _, _, ok := peek(s, "b"); ok {
		t.Error("b should have been evicted")
	}
	for _, k := range []string{"a", "c"} {
		if _, _, ok := peek(s, k); !ok {
			t.Errorf("%s should have survived", k)
		}
	}
	st := s.Stats()
	if st.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", st.Evictions)
	}
	if st.Bytes > 100 {
		t.Errorf("memory tier holds %d bytes, budget 100", st.Bytes)
	}
	if st.Entries != 2 {
		t.Errorf("entries = %d, want 2", st.Entries)
	}

	// An entry larger than the whole budget never enters the memory
	// tier (it would evict everything for a single-use slot).
	s.Put("huge", bytes.Repeat([]byte("y"), 200))
	if _, _, ok := peek(s, "huge"); ok {
		t.Error("over-budget entry should not be cached in memory")
	}
}

// TestMemoryBytesZeroDisablesMemory: with no budget every probe is a
// miss (or a disk hit when a directory is configured).
func TestMemoryBytesZeroDisablesMemory(t *testing.T) {
	s := New(Config{})
	s.Put("k", []byte("v"))
	if _, _, ok := peek(s, "k"); ok {
		t.Error("memory tier should be disabled at budget 0")
	}

	dir := t.TempDir()
	s2 := New(Config{Dir: dir})
	s2.Put("k", []byte("v"))
	body, st, ok := peek(s2, "k")
	if !ok || st != DiskHit || string(body) != "v" {
		t.Errorf("disk-only store: got %q status %d ok %v", body, st, ok)
	}
}

// TestDiskRoundTripAndSharing: a second store pointed at the same
// directory serves the first store's writes, and a disk hit is
// promoted into the reader's memory tier.
func TestDiskRoundTripAndSharing(t *testing.T) {
	dir := t.TempDir()
	w := New(Config{MemoryBytes: 1 << 20, Dir: dir})
	w.Put("key1", []byte(`{"x":1}`))

	r := New(Config{MemoryBytes: 1 << 20, Dir: dir})
	body, st, ok := peek(r, "key1")
	if !ok || st != DiskHit || string(body) != `{"x":1}` {
		t.Fatalf("disk read: %q status %d ok %v", body, st, ok)
	}
	if _, st, ok := peek(r, "key1"); !ok || st != MemoryHit {
		t.Errorf("second read should be a memory hit, got status %d ok %v", st, ok)
	}
}

// TestDiskCorruptSlotFallbackAndRepair: truncated or corrupt slots,
// wrong-version envelopes, and slots renamed under a foreign key all
// read as misses; the next Do recomputes and repairs the slot.
func TestDiskCorruptSlotFallbackAndRepair(t *testing.T) {
	dir := t.TempDir()
	s := New(Config{MemoryBytes: 1 << 20, Dir: dir})
	ctx := context.Background()
	payload := []byte(`{"answer":42}`)
	compute := func() ([]byte, error) { return payload, nil }

	if _, st, err := s.Do(ctx, "k", compute); err != nil || st != Miss {
		t.Fatalf("cold Do: status %d err %v", st, err)
	}

	corruptions := map[string]func(path string) error{
		"truncated": func(p string) error {
			data, _ := os.ReadFile(p)
			return os.WriteFile(p, data[:len(data)/2], 0o644)
		},
		"garbage": func(p string) error {
			return os.WriteFile(p, []byte("not json at all"), 0o644)
		},
		"wrong-key": func(p string) error {
			// A valid envelope written for a different key, as if a
			// slot file had been renamed by hand.
			other := New(Config{Dir: dir})
			other.Put("other", payload)
			data, err := os.ReadFile(slot.Path(dir, "res-other"))
			if err != nil {
				return err
			}
			return os.WriteFile(p, data, 0o644)
		},
		"wrong-version": func(string) error {
			// A well-formed envelope for this key and payload, written
			// by a build whose slots held another payload form.
			return slot.Write(dir, "res-k", slotVersion-1, "k", payload, 0o644)
		},
	}
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			path := slot.Path(dir, "res-k")
			if err := corrupt(path); err != nil {
				t.Fatal(err)
			}
			// A fresh store (empty memory tier) must treat the bad
			// slot as a miss and fall back to computing.
			fresh := New(Config{MemoryBytes: 1 << 20, Dir: dir})
			body, st, err := fresh.Do(ctx, "k", compute)
			if err != nil || st != Miss || string(body) != string(payload) {
				t.Fatalf("corrupt slot: body %q status %d err %v", body, st, err)
			}
			// ... and the Do repaired the slot: the next fresh store
			// reads it from disk again.
			repaired := New(Config{MemoryBytes: 1 << 20, Dir: dir})
			body, st, ok := peek(repaired, "k")
			if !ok || st != DiskHit || string(body) != string(payload) {
				t.Errorf("slot not repaired: body %q status %d ok %v", body, st, ok)
			}
		})
	}
}

// TestDiskSlotBytesUnchanged: a result slot holds, byte for byte, the
// envelope the store wrote before internal/slot owned the format — the
// body base64-encoded — with mode 0644, and a slot in that form hits.
func TestDiskSlotBytesUnchanged(t *testing.T) {
	dir := t.TempDir()
	const key = "3f2a0c5e9b1d4477"
	body := []byte("{\n  \"kernel\": \"matmul16\",\n  \"note\": \"<&>\"\n}\n")
	New(Config{Dir: dir}).Put(key, body)
	path := slot.Path(dir, "res-"+key)
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(struct {
		Version int    `json:"version"`
		Key     string `json:"key"`
		Body    []byte `json:"body"`
	}{2, key, body})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("slot bytes changed:\n got %s\nwant %s", got, want)
	}
	if fi, err := os.Stat(path); err != nil {
		t.Fatal(err)
	} else if m := fi.Mode().Perm(); m != 0o644 {
		t.Errorf("slot mode %v, want -rw-r--r--", m)
	}
	if err := os.WriteFile(path, want, 0o644); err != nil {
		t.Fatal(err)
	}
	if b, st, ok := peek(New(Config{Dir: dir}), key); !ok || st != DiskHit || !bytes.Equal(b, body) {
		t.Errorf("slot in the earlier bytes: %q status %d ok %v; want a disk hit", b, st, ok)
	}
}

// TestDoSingleflight: N concurrent identical requests run the
// computation exactly once; the followers coalesce onto the leader's
// result. Run under -race in CI.
func TestDoSingleflight(t *testing.T) {
	s := New(Config{MemoryBytes: 1 << 20})
	var computes atomic.Int32
	started := make(chan struct{})
	release := make(chan struct{})
	compute := func() ([]byte, error) {
		computes.Add(1)
		close(started)
		<-release
		return []byte("once"), nil
	}

	const n = 8
	var wg sync.WaitGroup
	results := make([][]byte, n)
	statuses := make([]Status, n)
	errs := make([]error, n)
	wg.Add(1)
	go func() {
		defer wg.Done()
		results[0], statuses[0], errs[0] = s.Do(context.Background(), "k", compute)
	}()
	<-started // the leader is inside compute; everyone else must coalesce
	for i := 1; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], statuses[i], errs[i] = s.Do(context.Background(), "k", func() ([]byte, error) {
				computes.Add(1)
				return []byte("once"), nil
			})
		}(i)
	}
	// Wait until all followers are registered as coalesced waiters,
	// then let the leader finish.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if st := s.Stats(); st.Coalesced >= n-1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("followers never coalesced: %+v", s.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if got := computes.Load(); got != 1 {
		t.Fatalf("computation ran %d times, want exactly 1", got)
	}
	for i := 0; i < n; i++ {
		if errs[i] != nil || string(results[i]) != "once" {
			t.Errorf("caller %d: %q, %v", i, results[i], errs[i])
		}
	}
	if statuses[0] != Miss {
		t.Errorf("leader status %d, want Miss", statuses[0])
	}
	for i := 1; i < n; i++ {
		if statuses[i] != Coalesced {
			t.Errorf("follower %d status %d, want Coalesced", i, statuses[i])
		}
	}
	st := s.Stats()
	if st.Misses != 1 || st.Coalesced != n-1 {
		t.Errorf("stats misses=%d coalesced=%d, want 1/%d", st.Misses, st.Coalesced, n-1)
	}
	if st.InFlight != 0 {
		t.Errorf("in-flight gauge stuck at %d", st.InFlight)
	}
}

// TestDoFollowerLeavesOnContextDeath: a coalesced waiter holds
// nothing and abandons the flight the moment its own context dies,
// while the leader keeps computing for everyone else.
func TestDoFollowerLeavesOnContextDeath(t *testing.T) {
	s := New(Config{MemoryBytes: 1 << 20})
	started := make(chan struct{})
	release := make(chan struct{})
	go s.Do(context.Background(), "k", func() ([]byte, error) {
		close(started)
		<-release
		return []byte("v"), nil
	})
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := s.Do(ctx, "k", func() ([]byte, error) { return nil, errors.New("must not run") })
		done <- err
	}()
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("follower returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled follower never returned")
	}
	close(release)
}

// TestDoLeaderCancellationRetries: when the leader dies with its own
// context, a surviving follower does not inherit the foreign
// cancellation — it retries and becomes the new leader.
func TestDoLeaderCancellationRetries(t *testing.T) {
	s := New(Config{MemoryBytes: 1 << 20})
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	started := make(chan struct{})
	go s.Do(leaderCtx, "k", func() ([]byte, error) {
		close(started)
		<-leaderCtx.Done()
		return nil, leaderCtx.Err()
	})
	<-started

	done := make(chan struct{})
	var body []byte
	var err error
	go func() {
		defer close(done)
		body, _, err = s.Do(context.Background(), "k", func() ([]byte, error) {
			return []byte("retried"), nil
		})
	}()
	// Give the follower a moment to register, then kill the leader.
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().Coalesced == 0 {
		if time.Now().After(deadline) {
			t.Fatal("follower never registered")
		}
		time.Sleep(time.Millisecond)
	}
	cancelLeader()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("follower never recovered from the leader's death")
	}
	if err != nil || string(body) != "retried" {
		t.Fatalf("retry: %q, %v", body, err)
	}
}

// TestDoErrorsNotCached: a failed computation leaves no cache entry —
// the next call recomputes.
func TestDoErrorsNotCached(t *testing.T) {
	s := New(Config{MemoryBytes: 1 << 20, Dir: t.TempDir()})
	ctx := context.Background()
	boom := errors.New("boom")
	if _, _, err := s.Do(ctx, "k", func() ([]byte, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("got %v, want boom", err)
	}
	body, st, err := s.Do(ctx, "k", func() ([]byte, error) { return []byte("ok"), nil })
	if err != nil || st != Miss || string(body) != "ok" {
		t.Fatalf("recompute after failure: %q status %d err %v", body, st, err)
	}
}

// TestDoDeadContext: a caller whose context is already dead gets the
// context error even when the value is cached.
func TestDoDeadContext(t *testing.T) {
	s := New(Config{MemoryBytes: 1 << 20})
	s.Put("k", []byte("v"))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := s.Do(ctx, "k", func() ([]byte, error) { return nil, fmt.Errorf("must not run") }); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}
