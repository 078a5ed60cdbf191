package timing

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"gpuperf/internal/gpu"
	"gpuperf/internal/isa"
	"gpuperf/internal/slot"
)

var (
	jsonMarshal   = json.Marshal
	jsonUnmarshal = json.Unmarshal
)

// calOnce shares one calibration across tests (it is moderately
// expensive to compute).
var (
	calMu   sync.Mutex
	calMemo *Calibration
)

func cal(t *testing.T) *Calibration {
	t.Helper()
	calMu.Lock()
	defer calMu.Unlock()
	if calMemo == nil {
		c, err := Calibrate(gpu.GTX285())
		if err != nil {
			t.Fatal(err)
		}
		calMemo = c
	}
	return calMemo
}

// TestInstrCurveShape verifies Fig. 2 (left): monotone-ish rise,
// saturation near the theoretical peak, class ordering.
func TestInstrCurveShape(t *testing.T) {
	c := cal(t)
	cfg := gpu.GTX285()
	for cls := isa.Class(0); int(cls) < isa.NumClasses; cls++ {
		peak := cfg.PeakInstrThroughput(cls.Units())
		one := c.InstrThroughput(cls, 1)
		sat := c.InstrThroughput(cls, 16)
		if one <= 0 || sat <= 0 {
			t.Fatalf("%s: zero throughput", cls)
		}
		if sat < one {
			t.Errorf("%s: saturated %.3g below 1-warp %.3g", cls, sat, one)
		}
		if sat > 1.05*peak {
			t.Errorf("%s: saturated %.3g exceeds peak %.3g", cls, sat, peak)
		}
		if sat < 0.6*peak {
			t.Errorf("%s: saturated %.3g under 60%% of peak %.3g", cls, sat, peak)
		}
	}
	// Class ordering at saturation follows the unit counts.
	if !(c.InstrThroughput(isa.ClassI, 16) > c.InstrThroughput(isa.ClassII, 16) &&
		c.InstrThroughput(isa.ClassII, 16) > c.InstrThroughput(isa.ClassIII, 16) &&
		c.InstrThroughput(isa.ClassIII, 16) > c.InstrThroughput(isa.ClassIV, 16)) {
		t.Error("class throughput ordering violated at saturation")
	}
}

// TestTypeIISaturationPoint: the paper infers ~6 pipeline stages
// from Type II saturating at 6 warps.
func TestTypeIISaturationPoint(t *testing.T) {
	c := cal(t)
	sat := c.InstrThroughput(isa.ClassII, 16)
	at6 := c.InstrThroughput(isa.ClassII, 6)
	at2 := c.InstrThroughput(isa.ClassII, 2)
	if at6 < 0.9*sat {
		t.Errorf("6 warps = %.3g, want ≥90%% of saturated %.3g", at6, sat)
	}
	if at2 > 0.6*sat {
		t.Errorf("2 warps = %.3g, want well below saturated %.3g", at2, sat)
	}
}

// TestTypeIVSaturatesImmediately: one double-precision unit means a
// single warp already saturates Type IV.
func TestTypeIVSaturatesImmediately(t *testing.T) {
	c := cal(t)
	if r := c.InstrThroughput(isa.ClassIV, 1) / c.InstrThroughput(isa.ClassIV, 16); r < 0.85 {
		t.Errorf("Type IV 1-warp/16-warp ratio = %.2f, want ≈1", r)
	}
}

// TestSharedCurveShape verifies Fig. 2 (right): rising curve that
// needs more warps than the instruction pipeline to saturate.
func TestSharedCurveShape(t *testing.T) {
	c := cal(t)
	cfg := gpu.GTX285()
	peak := cfg.PeakSharedBandwidth()
	sat := c.SharedBandwidth(32)
	if sat > 1.02*peak || sat < 0.5*peak {
		t.Errorf("saturated shared bandwidth %.3g vs peak %.3g", sat, peak)
	}
	// Paper's matmul analysis: {6,16,32} warps give roughly
	// {870,1112,1165} GB/s — i.e. 6 warps ≈ 75% of 32-warp value.
	at6, at16 := c.SharedBandwidth(6), c.SharedBandwidth(16)
	if !(at6 < at16 && at16 <= sat*1.001) {
		t.Errorf("shared curve not rising: 6w=%.3g 16w=%.3g 32w=%.3g", at6, at16, sat)
	}
	if at6 > 0.92*sat {
		t.Errorf("shared memory saturates too early: 6w=%.3g vs 32w=%.3g", at6, sat)
	}
	// The instruction pipeline is less vulnerable to low parallelism
	// than shared memory (paper §5.1): at 6 warps the ALU retains a
	// larger fraction of its saturated value.
	aluFrac := c.InstrThroughput(isa.ClassII, 6) / c.InstrThroughput(isa.ClassII, 32)
	smemFrac := at6 / sat
	if aluFrac <= smemFrac {
		t.Errorf("ALU fraction at 6 warps (%.2f) not above shared fraction (%.2f)", aluFrac, smemFrac)
	}
}

// TestGlobalBandwidthCurve verifies Fig. 3's qualitative properties.
func TestGlobalBandwidthCurve(t *testing.T) {
	c := cal(t)
	cfg := gpu.GTX285()
	peak := cfg.PeakGlobalBandwidth()
	bw := func(blocks, threads, m int) float64 {
		v, err := c.GlobalBandwidth(blocks, threads, m)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	// Rising in block count, saturating under peak.
	b2, b20, b60 := bw(2, 256, 32), bw(20, 256, 32), bw(60, 256, 32)
	if !(b2 < b20 && b20 <= b60*1.15) {
		t.Errorf("not rising: %.3g %.3g %.3g", b2, b20, b60)
	}
	if b60 > peak || b60 < 0.5*peak {
		t.Errorf("60-block bandwidth %.3g vs peak %.3g", b60, peak)
	}
	// With tiny per-thread work (M=2), far fewer transactions are in
	// flight: bandwidth at low block counts is much lower.
	if low := bw(10, 256, 2); low > 0.8*b20 {
		t.Errorf("M=2 bandwidth %.3g suspiciously close to M=32 %.3g", low, b20)
	}
	// Caching: repeated queries hit the cache and agree.
	again := bw(60, 256, 32)
	if again != b60 {
		t.Errorf("cache returned different value: %v vs %v", again, b60)
	}
}

// TestCurveInterpolationAndClamping: odd warp counts above 16 are
// interpolated; out-of-range warp counts clamp.
func TestCurveInterpolationAndClamping(t *testing.T) {
	c := cal(t)
	w17 := c.InstrThroughput(isa.ClassII, 17)
	w16 := c.InstrThroughput(isa.ClassII, 16)
	w18 := c.InstrThroughput(isa.ClassII, 18)
	if w17 <= 0 || math.IsNaN(w17) {
		t.Fatalf("no interpolated value at 17 warps")
	}
	lo, hi := math.Min(w16, w18), math.Max(w16, w18)
	if w17 < lo*0.999 || w17 > hi*1.001 {
		t.Errorf("17-warp value %.3g outside [%.3g, %.3g]", w17, lo, hi)
	}
	if c.InstrThroughput(isa.ClassII, 0) != c.InstrThroughput(isa.ClassII, 1) {
		t.Error("warp count 0 does not clamp to 1")
	}
	if c.InstrThroughput(isa.ClassII, 99) != c.InstrThroughput(isa.ClassII, 32) {
		t.Error("warp count 99 does not clamp to max")
	}
	if c.MaxWarps() != 32 {
		t.Errorf("MaxWarps = %d", c.MaxWarps())
	}
}

func TestGlobalBandwidthValidation(t *testing.T) {
	c := cal(t)
	if _, err := c.GlobalBandwidth(0, 256, 4); err == nil {
		t.Error("zero blocks accepted")
	}
	if _, err := c.GlobalBandwidth(4, -1, 4); err == nil {
		t.Error("negative threads accepted")
	}
	// Oversized parameters clamp rather than fail.
	if _, err := c.GlobalBandwidth(4, 4096, 10000); err != nil {
		t.Errorf("clamping failed: %v", err)
	}
}

func TestCalibrateRejectsBadConfig(t *testing.T) {
	bad := gpu.GTX285()
	bad.NumSMs = 0
	if _, err := Calibrate(bad); err == nil {
		t.Error("invalid config accepted")
	}
}

// TestCalibrationPersistence: a round-tripped calibration reproduces
// every curve value and keeps the global-benchmark cache.
func TestCalibrationPersistence(t *testing.T) {
	c := cal(t)
	// Populate the global cache with one entry.
	want, err := c.GlobalBandwidth(12, 256, 8)
	if err != nil {
		t.Fatal(err)
	}
	data, err := c.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	c2, err := LoadCalibration(data)
	if err != nil {
		t.Fatal(err)
	}
	for cls := isa.Class(0); int(cls) < isa.NumClasses; cls++ {
		for w := 1; w <= c.MaxWarps(); w++ {
			if c2.InstrThroughput(cls, w) != c.InstrThroughput(cls, w) {
				t.Fatalf("class %v warps %d differ", cls, w)
			}
		}
	}
	for w := 1; w <= c.MaxWarps(); w++ {
		if c2.SharedTxRate(w) != c.SharedTxRate(w) {
			t.Fatalf("shared rate differs at %d warps", w)
		}
	}
	got, err := c2.GlobalBandwidth(12, 256, 8)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("global cache not persisted: %v vs %v", got, want)
	}
	if c2.Config().Name != c.Config().Name {
		t.Error("config not persisted")
	}
}

// TestSaveFileAtomicAndConcurrent: SaveCachedCalibration round-trips
// through the filesystem, leaves no temp droppings, replaces an
// existing slot atomically, and is safe to run while other goroutines
// grow the global-bandwidth cache (exercised under -race).
func TestSaveFileAtomicAndConcurrent(t *testing.T) {
	c := cal(t)
	dir := t.TempDir()
	name := "cal-" + gpu.Fingerprint(c.Config())

	// Seed the slot with garbage: a failed or partial save must not
	// destroy it, a successful one must replace it wholesale.
	if err := os.WriteFile(slot.Path(dir, name), []byte("{corrupt"), 0o644); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(trans int) {
			defer wg.Done()
			if _, err := c.GlobalBandwidth(6, 128, trans); err != nil {
				t.Error(err)
			}
		}(i + 1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := c.SaveCachedCalibration(dir); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()

	c2, ok := LoadCachedCalibration(dir, c.Config())
	if !ok {
		t.Fatal("miss after concurrent saves")
	}
	if c2.Config().Name != c.Config().Name {
		t.Error("config not persisted")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != name+".json" {
		t.Fatalf("temp files left behind: %v", entries)
	}
	if fi, err := entries[0].Info(); err != nil {
		t.Fatal(err)
	} else if m := fi.Mode().Perm(); m != 0o644 {
		t.Errorf("calibration slot mode %v, want -rw-r--r--", m)
	}
}

// TestCacheFilePerFingerprint: two configurations differing in a
// single knob get distinct calibration slots; a renamed configuration
// with identical hardware shares one.
func TestCacheFilePerFingerprint(t *testing.T) {
	dir := t.TempDir()
	path := func(cfg gpu.Config) string { return slot.Path(dir, "cal-"+gpu.Fingerprint(cfg)) }
	base := gpu.GTX285()
	knobs := map[string]gpu.Config{
		"base":  base,
		"banks": gpu.GTX285(gpu.WithBanks(17)),
		"regs":  gpu.GTX285(gpu.WithRegisters(32768)),
		"smem":  gpu.GTX285(gpu.WithSharedMem(32 * 1024)),
		"seg":   gpu.GTX285(gpu.WithMinSegment(16)),
	}
	paths := map[string]string{}
	for name, cfg := range knobs {
		p := path(cfg)
		if prev, dup := paths[p]; dup {
			t.Errorf("%s and %s share cache file %s", name, prev, p)
		}
		paths[p] = name
	}
	renamed := base
	renamed.Name = "fleet-alias"
	if path(renamed) != path(base) {
		t.Error("renaming a configuration must not move its cache slot")
	}
}

// TestCachedCalibrationRoundTrip: SaveCachedCalibration creates the
// directory and LoadCachedCalibration finds the entry for the same
// hardware only.
func TestCachedCalibrationRoundTrip(t *testing.T) {
	c := cal(t)
	dir := filepath.Join(t.TempDir(), "nested", "cache")
	if err := c.SaveCachedCalibration(dir); err != nil {
		t.Fatal(err)
	}
	got, ok := LoadCachedCalibration(dir, c.Config())
	if !ok {
		t.Fatal("cache miss for the configuration that was just saved")
	}
	if got.Config().Name != c.Config().Name {
		t.Error("config not persisted")
	}
	if _, ok := LoadCachedCalibration(dir, gpu.GTX285(gpu.WithBanks(17))); ok {
		t.Error("cache for the stock device served a 17-bank variant")
	}
}

// TestCachedCalibrationCorruptionIsAMiss: a corrupt, truncated,
// fingerprint-mismatched or other-model-version slot reads as a miss
// (fall back to fresh calibration), never as an error or as wrong
// curves; so does a version-1 file, the bare MarshalJSON form with its
// own version field that earlier builds wrote, and the next save
// rewrites it.
func TestCachedCalibrationCorruptionIsAMiss(t *testing.T) {
	c := cal(t)
	cfg := c.Config()
	fp := gpu.Fingerprint(cfg)
	dir := t.TempDir()
	path := slot.Path(dir, "cal-"+fp)
	if err := c.SaveCachedCalibration(dir); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	curves, err := c.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var v1 map[string]any
	if err := jsonUnmarshal(curves, &v1); err != nil {
		t.Fatal(err)
	}
	v1["version"] = 1
	v1Blob, err := jsonMarshal(v1)
	if err != nil {
		t.Fatal(err)
	}
	for name, blob := range map[string][]byte{
		"garbage":   []byte("not json at all"),
		"truncated": good[:len(good)/2],
		"empty":     {},
		"version-1": v1Blob,
	} {
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := LoadCachedCalibration(dir, cfg); ok {
			t.Errorf("%s cache file served as a hit", name)
		}
	}
	if err := c.SaveCachedCalibration(dir); err != nil {
		t.Fatal(err)
	}
	if _, ok := LoadCachedCalibration(dir, cfg); !ok {
		t.Error("the save after a version-1 miss did not rewrite the slot")
	}
	// Curves measured under another model version miss.
	if err := slot.Write(dir, "cal-"+fp, calSlotVersion, calKey(fp, ModelVersion+1), c, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := LoadCachedCalibration(dir, cfg); ok {
		t.Error("a slot written under another model version served as a hit")
	}
	// A valid file sitting in the wrong fingerprint slot (e.g. a
	// manual rename) must also miss: the embedded hardware is not the
	// requested hardware.
	other := gpu.GTX285(gpu.WithBanks(17))
	if err := os.WriteFile(slot.Path(dir, "cal-"+gpu.Fingerprint(other)), good, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := LoadCachedCalibration(dir, other); ok {
		t.Error("stock-device curves served for the 17-bank variant")
	}
	// And a missing directory is a plain miss.
	if _, ok := LoadCachedCalibration(filepath.Join(dir, "nope"), cfg); ok {
		t.Error("missing directory served as a hit")
	}
}

func TestLoadCalibrationRejectsCorruption(t *testing.T) {
	c := cal(t)
	data, err := c.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	cases := [][]byte{
		[]byte("not json"),
		[]byte(`{"version":99}`),
		[]byte(`{"version":1,"config":{},"shared_tx":[]}`),
	}
	for i, bad := range cases {
		if _, err := LoadCalibration(bad); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	// Truncated shared curve.
	var m map[string]any
	if err := jsonUnmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	m["shared_tx"] = []float64{1, 2}
	bad, err := jsonMarshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCalibration(bad); err == nil {
		t.Error("short shared curve accepted")
	}
}

// TestGlobalBandwidthConcurrentMissSimulatesOnce: N first callers for
// one geometry share a single device simulation and get bit-equal
// bandwidths.
func TestGlobalBandwidthConcurrentMissSimulatesOnce(t *testing.T) {
	c := &Calibration{cfg: gpu.GTX285(), gcache: map[gkey]float64{}}
	const n = 8
	got := make([]float64, n)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			bw, err := c.GlobalBandwidth(9, 96, 3)
			if err != nil {
				t.Error(err)
			}
			got[i] = bw
		}()
	}
	wg.Wait()
	if c.gsims != 1 {
		t.Errorf("%d concurrent first callers ran %d simulations, want 1", n, c.gsims)
	}
	for i, bw := range got {
		if bw <= 0 || math.Float64bits(bw) != math.Float64bits(got[0]) {
			t.Errorf("caller %d got %v, caller 0 got %v", i, bw, got[0])
		}
	}
	if len(c.inflight) != 0 {
		t.Errorf("%d in-flight entries left after every caller returned", len(c.inflight))
	}
}

// TestStreamBytesKeepsBandwidth: the synthetic global-memory stream
// over an image sized to its footprint measures, bit for bit, the
// bandwidth the maxStreamBytes image does, across a sweep of
// geometries; the size is a power of two between 4 KiB and 4 MiB
// covering the footprint.
func TestStreamBytesKeepsBandwidth(t *testing.T) {
	for _, tc := range []struct {
		k    gkey
		want int
	}{
		{gkey{1, 32, 1}, 1 << 12},
		{gkey{4, 256, 1}, 1 << 12},
		{gkey{4, 256, 2}, 1 << 13},
		{gkey{5, 256, 1}, 1 << 13},
		{gkey{192, 256, 9}, 1 << 21},
		{gkey{256, 512, 8}, 1 << 22},
		{gkey{4104, 512, 64}, 1 << 22},
	} {
		if got := streamBytes(tc.k); got != tc.want {
			t.Errorf("streamBytes(%v) = %d, want %d", tc.k, got, tc.want)
		}
	}

	c := &Calibration{cfg: gpu.GTX285(), gcache: map[gkey]float64{}}
	rng := rand.New(rand.NewSource(1))
	ks := []gkey{{1, 32, 1}, {4, 256, 1}, {5, 256, 1}, {16, 192, 12}}
	for len(ks) < 40 {
		ks = append(ks, gkey{blocks: 1 + rng.Intn(64), threads: 32 * (1 + rng.Intn(8)), trans: 1 + rng.Intn(24)})
	}
	for _, k := range ks {
		got, err := c.simulateGlobal(k, streamBytes(k))
		if err != nil {
			t.Fatal(err)
		}
		want, err := c.simulateGlobal(k, maxStreamBytes)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%v over %d B: %v B/s, over %d B: %v B/s", k, streamBytes(k), got, maxStreamBytes, want)
		}
	}
}
