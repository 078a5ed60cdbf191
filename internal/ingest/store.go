package ingest

import (
	"container/list"
	"errors"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"gpuperf/internal/slot"
)

// ErrNotFound reports a submission id absent from the store (never
// admitted, expired, or evicted).
var ErrNotFound = errors.New("ingest: submission not found")

// StoreConfig bounds a submission store.
type StoreConfig struct {
	// MaxCount and MaxBytes budget the resident submissions; admitting
	// past either evicts least-recently-used entries first.
	MaxCount int
	MaxBytes int64
	// TTL expires submissions this long after CreatedAt.
	TTL time.Duration
	// Dir, when set, persists each submission as an internal/slot
	// file, "<id>.json", so a restarted daemon keeps its submissions.
	// Empty keeps the store in memory.
	Dir string
	// Now substitutes the clock in tests.
	Now func() time.Time
}

// Store is an LRU-bounded, TTL-expiring, optionally persistent set of
// accepted submissions — their one owner. Every call applies the TTL
// first, so an expired submission is never returned, listed or
// deleted, and Get, the lookup an analysis makes, refreshes recency.
type Store struct {
	cfg StoreConfig

	mu        sync.Mutex
	order     *list.List               // front = most recently used
	byID      map[string]*list.Element // value: *Submission
	oldest    time.Time                // no resident was created before it
	bytes     int64
	evictions int64 // removals for any reason: LRU, TTL, Delete
}

// slotVersion names a submission slot's body form. Version 1 was a
// bare {"version","submission"} file; it reads as a miss.
const slotVersion = 2

// NewStore opens a store, loading any persisted submissions from
// cfg.Dir (oldest first, so LRU order favors recent ones). Slots that
// fail to parse or have expired are discarded.
func NewStore(cfg StoreConfig) (*Store, error) {
	lim := Limits{MaxCount: cfg.MaxCount, MaxBytes: cfg.MaxBytes, TTL: cfg.TTL}.withDefaults()
	cfg.MaxCount, cfg.MaxBytes, cfg.TTL = lim.MaxCount, lim.MaxBytes, lim.TTL
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	s := &Store{cfg: cfg, order: list.New(), byID: make(map[string]*list.Element)}
	if cfg.Dir == "" {
		return s, nil
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("ingest: submission dir: %w", err)
	}
	entries, err := os.ReadDir(cfg.Dir)
	if err != nil {
		return nil, fmt.Errorf("ingest: submission dir: %w", err)
	}
	var subs []*Submission
	for _, e := range entries {
		id, ok := strings.CutSuffix(e.Name(), ".json")
		if e.IsDir() || !ok || !strings.HasPrefix(id, IDPrefix) {
			continue
		}
		var sub *Submission
		if !slot.Read(cfg.Dir, id, slotVersion, id, &sub) || sub == nil || sub.ID != id {
			os.Remove(s.SlotPath(id)) // corrupt or alien slot: drop, don't fail open
			continue
		}
		subs = append(subs, sub)
	}
	sort.Slice(subs, func(i, j int) bool { return subs[i].CreatedAt.Before(subs[j].CreatedAt) })
	for _, sub := range subs {
		s.admit(sub, false)
	}
	s.expireLocked()
	return s, nil
}

// SlotPath names a submission's on-disk slot; empty when the store is
// memory-only.
func (s *Store) SlotPath(id string) string {
	if s.cfg.Dir == "" {
		return ""
	}
	return slot.Path(s.cfg.Dir, id)
}

func (sub *Submission) weight() int64 {
	w := int64(len(sub.Container))
	for range sub.Buffers {
		w += 64 // coarse spec overhead; the container bytes dominate
	}
	return w + 256
}

// TTL is how long a submission stays resident after its CreatedAt.
func (s *Store) TTL() time.Duration { return s.cfg.TTL }

// Put admits a submission, persisting it and evicting as needed, and
// reports whether its id was already resident. Re-admitting an
// existing id refreshes its recency and TTL clock.
func (s *Store) Put(sub *Submission) (existing bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.expireLocked()
	if sub.CreatedAt.Before(s.oldest) {
		s.oldest = sub.CreatedAt
	}
	if el, ok := s.byID[sub.ID]; ok {
		el.Value = sub
		s.order.MoveToFront(el)
		return true, s.persist(sub)
	}
	if err := s.persist(sub); err != nil {
		return false, err
	}
	s.admit(sub, true)
	return false, nil
}

// admit inserts a submission whose id is not resident, without
// persisting it; evict trims to budget.
func (s *Store) admit(sub *Submission, evict bool) {
	s.byID[sub.ID] = s.order.PushFront(sub)
	s.bytes += sub.weight()
	if !evict {
		return
	}
	for (len(s.byID) > s.cfg.MaxCount || s.bytes > s.cfg.MaxBytes) && s.order.Len() > 1 {
		s.removeLocked(s.order.Back())
	}
}

// persist writes sub's slot, readable by the daemon's user alone: it
// holds a client's program.
func (s *Store) persist(sub *Submission) error {
	if s.cfg.Dir == "" {
		return nil
	}
	if err := slot.Write(s.cfg.Dir, sub.ID, slotVersion, sub.ID, sub, 0o600); err != nil {
		return fmt.Errorf("ingest: persist submission: %w", err)
	}
	return nil
}

// Get returns a live submission by id, refreshing its recency.
func (s *Store) Get(id string) (*Submission, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.expireLocked()
	el, ok := s.byID[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	s.order.MoveToFront(el)
	return el.Value.(*Submission), nil
}

// Delete removes a submission; false if it was not resident (or had
// expired).
func (s *Store) Delete(id string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.expireLocked()
	el, ok := s.byID[id]
	if !ok {
		return false
	}
	s.removeLocked(el)
	return true
}

// List snapshots the live submissions, most recently used first.
func (s *Store) List() []*Submission {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.expireLocked()
	out := make([]*Submission, 0, len(s.byID))
	for el := s.order.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*Submission))
	}
	return out
}

// Stats reports the resident count, byte weight and the cumulative
// number of submissions removed (LRU pressure, TTL expiry or
// explicit deletion).
func (s *Store) Stats() (count int, bytes int64, evictions int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.expireLocked()
	return len(s.byID), s.bytes, s.evictions
}

// expireLocked drops every submission past its TTL. No resident was
// created before oldest, so while oldest is within the TTL nothing has
// expired and the walk is skipped. A walk resets oldest from the
// survivors; a new store's zero oldest makes its first call walk.
func (s *Store) expireLocked() {
	now := s.cfg.Now()
	if now.Sub(s.oldest) <= s.cfg.TTL {
		return
	}
	s.oldest = now
	var dead []*list.Element
	for el := s.order.Front(); el != nil; el = el.Next() {
		created := el.Value.(*Submission).CreatedAt
		if now.Sub(created) > s.cfg.TTL {
			dead = append(dead, el)
		} else if created.Before(s.oldest) {
			s.oldest = created
		}
	}
	for _, el := range dead {
		s.removeLocked(el)
	}
}

// removeLocked drops a live submission and its slot file. Leaving the
// store for any reason counts as an eviction.
func (s *Store) removeLocked(el *list.Element) {
	sub := el.Value.(*Submission)
	s.order.Remove(el)
	delete(s.byID, sub.ID)
	s.bytes -= sub.weight()
	if path := s.SlotPath(sub.ID); path != "" {
		os.Remove(path)
	}
	s.evictions++
}
