package gpuperf

// Fleet and catalog tests. The expensive per-device calibrations are
// shared through testFleet's fingerprint-keyed cache directory.

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"strings"
	"testing"

	"gpuperf/internal/slot"
	"gpuperf/internal/timing"
)

// TestDefaultCatalog: the built-ins are present, valid, renamed to
// their catalog keys, and fingerprinted distinctly except where the
// hardware genuinely matches.
func TestDefaultCatalog(t *testing.T) {
	c := DefaultCatalog()
	for _, name := range []string{"gtx285", "gtx285-6sm", "gtx285-3sm", "gtx285+banks17", "gtx280", "tesla-c1060"} {
		d, ok := c.Lookup(name)
		if !ok {
			t.Fatalf("catalog missing %q (have %v)", name, c.Names())
		}
		if d.Name != name {
			t.Errorf("entry %q stored under Name %q", name, d.Name)
		}
		if err := d.Validate(); err != nil {
			t.Errorf("entry %q invalid: %v", name, err)
		}
	}
	fps := map[string]string{}
	for _, p := range c.Profiles() {
		if p.Fingerprint == "" || p.NumSMs <= 0 || p.PeakGFLOPS <= 0 {
			t.Errorf("profile %q incomplete: %+v", p.Name, p)
		}
		if prev, dup := fps[p.Fingerprint]; dup {
			t.Errorf("catalog entries %q and %q share hardware fingerprint %s", p.Name, prev, p.Fingerprint)
		}
		fps[p.Fingerprint] = p.Name
	}
	if got := len(c.Profiles()); got != len(c.Names()) {
		t.Errorf("%d profiles for %d names", got, len(c.Names()))
	}
}

// TestCatalogImmutable: duplicate names and invalid configurations
// are rejected; Lookup hands out copies, so mutating a returned
// device never changes the catalog.
func TestCatalogImmutable(t *testing.T) {
	c := NewDeviceCatalog()
	if err := c.Register("toy", DefaultDevice()); err != nil {
		t.Fatal(err)
	}
	if err := c.Register("toy", DefaultDevice()); err == nil {
		t.Error("duplicate registration accepted")
	}
	bad := DefaultDevice()
	bad.NumSMs = 0
	if err := c.Register("broken", bad); err == nil {
		t.Error("invalid configuration accepted")
	}
	if err := c.Register("", DefaultDevice()); err == nil {
		t.Error("empty name accepted")
	}
	d, _ := c.Lookup("toy")
	d.SharedMemBanks = 99
	d2, _ := c.Lookup("toy")
	if d2.SharedMemBanks == 99 {
		t.Error("mutating a looked-up device changed the catalog")
	}
	if _, err := c.Resolve("nope"); !errors.Is(err, ErrUnknownDevice) {
		t.Errorf("Resolve(nope) = %v, want ErrUnknownDevice", err)
	}
}

// TestFleetRouting: requests land on the catalog device they name,
// the default applies when they name none, results echo catalog
// names, and unknown devices fail with the sentinel.
func TestFleetRouting(t *testing.T) {
	f := testFleet(t)
	res, err := f.Analyze(context.Background(), Request{Kernel: "matmul16", Size: 64, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.Device != "gtx285-6sm" {
		t.Errorf("default-device result names %q, want gtx285-6sm", res.Device)
	}
	res2, err := f.Analyze(context.Background(), Request{Kernel: "matmul16", Size: 64, Seed: 7, Device: "gtx285-6sm"})
	if err != nil {
		t.Fatal(err)
	}
	b1, _ := json.Marshal(res)
	b2, _ := json.Marshal(res2)
	if string(b1) != string(b2) {
		t.Error("explicit default device disagrees with implicit")
	}
	if _, err := f.Analyze(context.Background(), Request{Kernel: "matmul16", Device: "gtx999"}); !errors.Is(err, ErrUnknownDevice) {
		t.Errorf("unknown device: got %v", err)
	}
	if _, err := f.Measure(context.Background(), Request{Kernel: "matmul16", Device: "gtx999"}); !errors.Is(err, ErrUnknownDevice) {
		t.Errorf("measure unknown device: got %v", err)
	}
	if _, err := f.Advise(context.Background(), Request{Kernel: "matmul16", Device: "gtx999"}); !errors.Is(err, ErrUnknownDevice) {
		t.Errorf("advise unknown device: got %v", err)
	}
}

// TestFleetSessionsSharedState: repeated lookups reuse one session
// per device, every session shares the fleet's admission semaphore,
// and a queued request abandons the fleet-wide queue when its
// context dies — the admission limit bounds the fleet, not each
// device.
func TestFleetSessionsSharedState(t *testing.T) {
	f := NewFleet(FleetOptions{DefaultDevice: "gtx285-6sm"})
	a1, err := f.Session("gtx285-6sm")
	if err != nil {
		t.Fatal(err)
	}
	a1again, err := f.Session("")
	if err != nil {
		t.Fatal(err)
	}
	if a1again != a1 {
		t.Error("default-device session is not the named session")
	}
	a2, err := f.Session("gtx285-3sm")
	if err != nil {
		t.Fatal(err)
	}
	if a1.fleet != f || a2.fleet != f {
		t.Fatal("sessions do not share their fleet's admission semaphore")
	}
	// Fill every slot by hand, then queue a request for the OTHER
	// device: it must wait on the same gate.
	release := fillAdmission(f)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		// Measure needs no calibration, so the only thing it can block
		// on is the shared admission gate.
		_, err := f.Measure(ctx, Request{Kernel: "matmul16", Size: 64, Device: "gtx285-3sm"})
		done <- err
	}()
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("queued cross-device request returned %v, want context.Canceled", err)
	}
	if len(f.admit) != cap(f.admit) {
		t.Fatalf("the abandoned request disturbed the admission gate: %d of %d slots held", len(f.admit), cap(f.admit))
	}
	release()
}

// TestFleetCompare: one kernel ranked across two slices of the same
// chip — more SMs must win, the baseline pins speedup 1, entries
// arrive fastest-first, and the whole comparison is byte-stable
// across repeated runs and parallelism settings.
func TestFleetCompare(t *testing.T) {
	f := testFleet(t)
	req := CompareRequest{
		Kernel:  "matmul16",
		Size:    256,
		Seed:    7,
		Devices: []string{"gtx285-3sm", "gtx285-6sm"},
	}
	cmp, err := f.Compare(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Kernel != "matmul16" || cmp.Size != 256 || cmp.Seed != 7 {
		t.Errorf("request echo wrong: %+v", cmp)
	}
	if cmp.Baseline != "gtx285-3sm" {
		t.Errorf("baseline defaulted to %q, want the first device", cmp.Baseline)
	}
	if len(cmp.Entries) != 2 {
		t.Fatalf("%d entries, want 2", len(cmp.Entries))
	}
	if cmp.Best != "gtx285-6sm" || cmp.Entries[0].Device != "gtx285-6sm" {
		t.Errorf("6 SMs should beat 3: best %q, first %q", cmp.Best, cmp.Entries[0].Device)
	}
	if cmp.Entries[0].Speedup <= 1 {
		t.Errorf("the faster device should show speedup > 1, got %.3f", cmp.Entries[0].Speedup)
	}
	if cmp.Entries[1].Speedup != 1 {
		t.Errorf("baseline speedup = %.3f, want exactly 1", cmp.Entries[1].Speedup)
	}
	for i, e := range cmp.Entries {
		if e.PredictedSeconds <= 0 || e.Bottleneck == "" || e.Fingerprint == "" {
			t.Errorf("entry %d incomplete: %+v", i, e)
		}
		if e.MeasuredSeconds != 0 {
			t.Errorf("entry %d has measured time without Measure: %+v", i, e)
		}
	}
	if cmp.Entries[0].Fingerprint == cmp.Entries[1].Fingerprint {
		t.Error("different slices share a fingerprint")
	}

	// Deterministic: a rerun and a serial rerun are byte-identical.
	blob, _ := json.Marshal(cmp)
	for _, p := range []int{0, 1, 4} {
		req2 := req
		req2.Parallelism = p
		cmp2, err := f.Compare(context.Background(), req2)
		if err != nil {
			t.Fatal(err)
		}
		blob2, _ := json.Marshal(cmp2)
		if string(blob) != string(blob2) {
			t.Errorf("comparison differs at parallelism %d:\n%s\nvs\n%s", p, blob, blob2)
		}
	}
}

// TestFleetCompareMeasure: Measure adds the timing simulator's
// result to every entry.
func TestFleetCompareMeasure(t *testing.T) {
	f := testFleet(t)
	cmp, err := f.Compare(context.Background(), CompareRequest{
		Kernel:  "matmul16",
		Size:    256,
		Seed:    7,
		Devices: []string{"gtx285-6sm", "gtx285-3sm"},
		Measure: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range cmp.Entries {
		if e.MeasuredSeconds <= 0 {
			t.Errorf("entry %d missing measured time: %+v", i, e)
		}
	}
	if cmp.Baseline != "gtx285-6sm" {
		t.Errorf("baseline %q, want gtx285-6sm", cmp.Baseline)
	}
}

// TestFleetCompareValidation: malformed compare sets fail fast with
// the caller-blaming sentinels, before any simulation runs.
func TestFleetCompareValidation(t *testing.T) {
	f := testFleet(t)
	ctx := context.Background()
	cases := []struct {
		name string
		req  CompareRequest
		want error
	}{
		{"empty devices", CompareRequest{Kernel: "matmul16"}, ErrInvalidRequest},
		{"duplicate device", CompareRequest{Kernel: "matmul16", Devices: []string{"gtx285-6sm", "gtx285-6sm"}}, ErrInvalidRequest},
		{"unknown device", CompareRequest{Kernel: "matmul16", Devices: []string{"gtx285-6sm", "gtx999"}}, ErrUnknownDevice},
		{"foreign baseline", CompareRequest{Kernel: "matmul16", Devices: []string{"gtx285-6sm"}, Baseline: "gtx285-3sm"}, ErrInvalidRequest},
		{"unknown kernel", CompareRequest{Kernel: "nope", Devices: []string{"gtx285-6sm"}}, ErrUnknownKernel},
		{"oversized", CompareRequest{Kernel: "matmul16", Size: 1 << 20, Devices: []string{"gtx285-6sm"}}, ErrInvalidRequest},
	}
	for _, c := range cases {
		if _, err := f.Compare(ctx, c.req); !errors.Is(err, c.want) {
			t.Errorf("%s: got %v, want %v", c.name, err, c.want)
		}
	}
	// A failing device identifies itself in the error.
	_, err := f.Compare(ctx, CompareRequest{Kernel: "matmul16", Size: 100, Devices: []string{"gtx285-6sm"}})
	if err == nil || !strings.Contains(err.Error(), `device "gtx285-6sm"`) {
		t.Errorf("per-device failure not attributed: %v", err)
	}
}

// TestFleetAnalyzeBatchRoutes: a batch mixing devices routes each
// request, keeps slots aligned, and wraps failures with index and
// kernel.
func TestFleetAnalyzeBatchRoutes(t *testing.T) {
	f := testFleet(t)
	reqs := []Request{
		{Kernel: "matmul16", Size: 64, Seed: 7},
		{Kernel: "matmul16", Size: 64, Seed: 7, Device: "gtx999"},
		{Kernel: "cr", Size: 8, Seed: 2, Device: "gtx285-6sm"},
	}
	results, err := f.AnalyzeBatch(context.Background(), reqs)
	if err == nil || !errors.Is(err, ErrUnknownDevice) {
		t.Fatalf("batch error should join the unknown-device failure, got %v", err)
	}
	if !strings.Contains(err.Error(), `request 1 (kernel "matmul16")`) {
		t.Errorf("failure not attributed to its request: %v", err)
	}
	if results[0] == nil || results[1] != nil || results[2] == nil {
		t.Fatalf("result slots wrong: %v", results)
	}
	if results[0].Device != "gtx285-6sm" || results[2].Device != "gtx285-6sm" {
		t.Errorf("batch results name %q/%q, want catalog names", results[0].Device, results[2].Device)
	}
}

// TestFleetCalibrationsCachedPerFingerprint: after serving two
// different devices, the fleet's cache directory holds one entry per
// hardware fingerprint, each loadable only for its own device — no
// cross-device reuse.
func TestFleetCalibrationsCachedPerFingerprint(t *testing.T) {
	f := testFleet(t)
	// Ensure both devices have calibrated (idempotent if other tests
	// already did).
	for _, name := range []string{"gtx285-6sm", "gtx285-3sm"} {
		a, err := f.Session(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Calibrate(); err != nil {
			t.Fatal(err)
		}
	}
	dir := f.opt.CalibrationDir
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) < 2 {
		t.Fatalf("cache dir %s holds %d entries, want one per device", dir, len(entries))
	}
	six, _ := f.Catalog().Lookup("gtx285-6sm")
	three, _ := f.Catalog().Lookup("gtx285-3sm")
	calPath := func(dev Device) string { return slot.Path(dir, "cal-"+DeviceFingerprint(dev)) }
	if calPath(six) == calPath(three) {
		t.Fatal("different devices share a cache slot")
	}
	for _, dev := range []Device{six, three} {
		cal, ok := timing.LoadCachedCalibration(dir, dev)
		if !ok {
			t.Fatalf("no cache entry for %s", dev.Name)
		}
		if DeviceFingerprint(cal.Config()) != DeviceFingerprint(dev) {
			t.Errorf("cache entry for %s embeds foreign hardware", dev.Name)
		}
	}
	// Each file really is a different calibration: the 3-SM curves
	// must not equal the 6-SM ones wholesale.
	b6, err := os.ReadFile(calPath(six))
	if err != nil {
		t.Fatal(err)
	}
	b3, err := os.ReadFile(calPath(three))
	if err != nil {
		t.Fatal(err)
	}
	if string(b6) == string(b3) {
		t.Error("6-SM and 3-SM cache entries are identical")
	}
}
