package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sync"
	"time"

	"gpuperf"
)

// Config is one benchmark run's settings.
type Config struct {
	Workload string
	Seed     int64
	Seconds  time.Duration
	Clients  int
	Out      string
	// Verifiable reports whether a kernel has a CPU reference.
	Verifiable func(string) bool
}

// Deadline is the per-request deadline of the workload.
func (c *Config) Deadline() time.Duration {
	if c.Workload == "hot" {
		return 5 * time.Second
	}
	return 30 * time.Second
}

// DigestPrefix is how many leading requests of the workload's list the
// output digest covers; the traced run traces the same prefix.
func (c *Config) DigestPrefix() int {
	switch c.Workload {
	case "predict":
		return len(predictShapes) + (len(predictShapes)+2)/3 // one round
	case "validate":
		return 24 // three groups of eight
	}
	return len(HotTuples(c.Seed))
}

// System is one cold, set-up instance of a workload's system under
// test, ready for timed requests.
type System interface {
	// Limit is how many distinct requests the workload has.
	Limit() int
	// Do runs request i and checks its output.
	Do(ctx context.Context, i int) error
	// Digest is the output digest of the covered prefix.
	Digest() *Digest
	Close()
}

// Setup builds a cold system for the workload, with calibration spans
// recorded to tr (which may be nil).
func Setup(ctx context.Context, cfg *Config, tr *Tracer) (System, error) {
	switch cfg.Workload {
	case "predict":
		return setupFleetSystem(ctx, cfg, tr, Devices[:1], PredictWarmup(cfg.Seed), PredictRequests(cfg.Seed, 64))
	case "validate":
		return setupFleetSystem(ctx, cfg, tr, Devices, nil, ValidateRequests(cfg.Seed))
	case "hot":
		return setupHot(ctx, cfg, tr)
	}
	return nil, fmt.Errorf("unknown workload %q (want predict, validate or hot)", cfg.Workload)
}

// Digest hashes the canonical outputs of a fixed request prefix.
type Digest struct {
	mu    sync.Mutex
	slots [][]byte
}

// NewDigest covers requests [0, n).
func NewDigest(n int) *Digest { return &Digest{slots: make([][]byte, n)} }

// Record stores request i's output if i is in the covered prefix.
func (d *Digest) Record(i int, o Output) error {
	if i >= len(d.slots) {
		return nil
	}
	b, err := o.Canonical()
	if err != nil {
		return err
	}
	d.mu.Lock()
	d.slots[i] = b
	d.mu.Unlock()
	return nil
}

// Sum returns the SHA-256 over the covered outputs in request order,
// and whether every covered request recorded one.
func (d *Digest) Sum() (string, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	h := sha256.New()
	complete := true
	for i, b := range d.slots {
		if b == nil {
			complete = false
		}
		fmt.Fprintf(h, "%d %d\n", i, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil)), complete
}

// calibrateFleet cold-calibrates the fleet's sessions for devs
// concurrently, one "calibration" span each.
func calibrateFleet(f *gpuperf.Fleet, devs []string, tr *Tracer) error {
	errs := make([]error, len(devs))
	var wg sync.WaitGroup
	for i, d := range devs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a, err := f.Session(d)
			if err != nil {
				errs[i] = err
				return
			}
			sp := tr.Root("calibration", -1)
			errs[i] = a.Calibrate()
			sp.End()
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// fleetSystem serves predict and validate: one library-default Fleet.
type fleetSystem struct {
	cfg    *Config
	fleet  *gpuperf.Fleet
	reqs   []Request
	digest *Digest
}

func setupFleetSystem(ctx context.Context, cfg *Config, tr *Tracer, devs []string, warm, reqs []Request) (*fleetSystem, error) {
	f := gpuperf.NewFleet(gpuperf.FleetOptions{})
	if err := calibrateFleet(f, devs, tr); err != nil {
		return nil, err
	}
	if len(warm) > 0 {
		res := ClosedLoop(ctx, cfg.Clients, len(warm), 0, cfg.Deadline(), 0, func(ctx context.Context, i int) error {
			out, err := RunFleet(ctx, f, warm[i])
			if err != nil {
				return err
			}
			return Check(warm[i], out, cfg.Verifiable)
		})
		if err := res.FirstError(); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return &fleetSystem{cfg: cfg, fleet: f, reqs: reqs, digest: NewDigest(cfg.DigestPrefix())}, nil
}

func (s *fleetSystem) Limit() int      { return len(s.reqs) }
func (s *fleetSystem) Digest() *Digest { return s.digest }
func (s *fleetSystem) Close()          {}

func (s *fleetSystem) Do(ctx context.Context, i int) error {
	out, err := RunFleet(ctx, s.fleet, s.reqs[i])
	if err != nil {
		return err
	}
	if err := Check(s.reqs[i], out, s.cfg.Verifiable); err != nil {
		return err
	}
	return s.digest.Record(i, out)
}

// hotSystem serves the hot workload: the cluster with every tuple's
// cache slot filled through the router.
type hotSystem struct {
	cl     *Cluster
	tuples []Request
	bodies [][]byte
	refs   []HotRef
	seq    *HotSequence
	digest *Digest
}

func setupHot(ctx context.Context, cfg *Config, tr *Tracer) (*hotSystem, error) {
	cl, err := StartCluster(cfg.Clients)
	if err != nil {
		return nil, err
	}
	s := &hotSystem{cl: cl, tuples: HotTuples(cfg.Seed)}
	s.seq = NewHotSequence(cfg.Seed, s.tuples)
	s.digest = NewDigest(len(s.tuples))
	s.refs = make([]HotRef, len(s.tuples))
	for _, t := range s.tuples {
		b, err := Body(t)
		if err != nil {
			cl.Close()
			return nil, err
		}
		s.bodies = append(s.bodies, b)
	}
	if err := calibrateCluster(cl, tr); err != nil {
		cl.Close()
		return nil, err
	}
	fill := ClosedLoop(ctx, cfg.Clients, len(s.tuples), 0, cfg.Deadline()*6, 0, func(ctx context.Context, i int) error {
		t := s.tuples[i]
		rep, err := cl.Post(ctx, cl.RouterURL+Path(t), s.bodies[i], "")
		if err != nil {
			return err
		}
		if rep.Status != http.StatusOK || rep.Cache != string(gpuperf.CacheMiss) {
			return fmt.Errorf("fill of %s answered %d X-Cache %q: %s", t, rep.Status, rep.Cache, rep.Body)
		}
		out, err := DecodeOutput(t, rep.Body)
		if err != nil {
			return err
		}
		if err := Check(t, out, cfg.Verifiable); err != nil {
			return fmt.Errorf("%s: %w", t, err)
		}
		s.refs[i] = HotRef{Body: rep.Body, ETag: rep.ETag}
		return s.digest.Record(i, out)
	})
	if err := fill.FirstError(); err != nil {
		cl.Close()
		return nil, fmt.Errorf("filling the cache: %w", err)
	}
	return s, nil
}

// calibrateCluster cold-calibrates each worker's own device,
// concurrently, one "calibration" span each.
func calibrateCluster(cl *Cluster, tr *Tracer) error {
	errs := make([]error, len(Devices))
	var wg sync.WaitGroup
	for i, d := range Devices {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = calibrateFleet(cl.Fleets[cl.Owner[d]], []string{d}, tr)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

func (s *hotSystem) Limit() int      { return math.MaxInt }
func (s *hotSystem) Digest() *Digest { return s.digest }
func (s *hotSystem) Close()          { s.cl.Close() }

func (s *hotSystem) Do(ctx context.Context, i int) error {
	r := s.seq.At(i)
	etag := ""
	if r.Revalidate {
		etag = s.refs[r.Tuple].ETag
	}
	rep, err := s.cl.Post(ctx, s.cl.RouterURL+Path(r), s.bodies[r.Tuple], etag)
	if err != nil {
		return err
	}
	return s.refs[r.Tuple].Expect(rep, r.Revalidate)
}
