package timing

import (
	"encoding/json"
	"fmt"

	"gpuperf/internal/gpu"
	"gpuperf/internal/isa"
	"gpuperf/internal/slot"
)

// ModelVersion names the model's predictions and calibration curves.
// Bump it with every change that moves a prediction or a calibration
// curve: result and calibration slots written under another value
// read as misses, so a cache directory never serves stale answers.
const ModelVersion = 0

// calibrationJSON is the serialized form of a Calibration: the
// configuration it was measured on, the measured per-warp curves,
// and any synthetic global-memory benchmark results cached so far
// (keyed "blocks/threads/transactions").
type calibrationJSON struct {
	Config   gpu.Config                `json:"config"`
	Instr    [isa.NumClasses][]float64 `json:"instr"`
	SharedTx []float64                 `json:"shared_tx"`
	Global   map[string]float64        `json:"global,omitempty"`
}

// MarshalJSON serializes the calibration curves. Safe to call while
// other goroutines use the calibration: the mutable global-bandwidth
// cache is snapshotted under its lock.
func (c *Calibration) MarshalJSON() ([]byte, error) {
	c.mu.Lock()
	global := make(map[string]float64, len(c.gcache))
	for k, v := range c.gcache { //gpuperf:unordered map-to-map copy; the JSON encoder sorts the assembled map's keys
		global[fmt.Sprintf("%d/%d/%d", k.blocks, k.threads, k.trans)] = v
	}
	c.mu.Unlock()
	return json.Marshal(calibrationJSON{
		Config:   c.cfg,
		Instr:    c.instr,
		SharedTx: c.sharedTx,
		Global:   global,
	})
}

// calSlotVersion names the calibration slot's body form (see
// internal/slot). Version 1 was a bare MarshalJSON file carrying its
// own version field; it reads as a miss.
const calSlotVersion = 2

// calKey is the calibration slot's key: the device fingerprint, which
// also names the slot file, and the model version the curves were
// measured under.
func calKey(fingerprint string, model int) string {
	return fmt.Sprintf("%s/model-%d", fingerprint, model)
}

// LoadCachedCalibration looks up cfg's calibration slot under dir,
// "cal-<fingerprint>": one slot per device fingerprint, so two
// configurations differing in any knob never share a file, while a
// renamed but identical configuration reuses its curves. Any failure
// — a missing, corrupt or truncated slot, one written under another
// ModelVersion, or one whose embedded configuration is not cfg's
// hardware — is a miss (nil, false), never an error: the caller falls
// back to a fresh calibration.
func LoadCachedCalibration(dir string, cfg gpu.Config) (*Calibration, bool) {
	fp := gpu.Fingerprint(cfg)
	var raw json.RawMessage
	if !slot.Read(dir, "cal-"+fp, calSlotVersion, calKey(fp, ModelVersion), &raw) {
		return nil, false
	}
	cal, err := LoadCalibration(raw)
	if err != nil || gpu.Fingerprint(cal.Config()) != fp {
		return nil, false
	}
	return cal, true
}

// SaveCachedCalibration writes c into its fingerprint slot under dir,
// creating the directory if needed. The write is atomic, and safe
// while other goroutines use the calibration.
func (c *Calibration) SaveCachedCalibration(dir string) error {
	fp := gpu.Fingerprint(c.cfg)
	if err := slot.Write(dir, "cal-"+fp, calSlotVersion, calKey(fp, ModelVersion), c, 0o644); err != nil {
		return fmt.Errorf("timing: save calibration: %w", err)
	}
	return nil
}

// LoadCalibration reconstructs a Calibration from MarshalJSON
// output, validating the embedded configuration and curve shapes.
func LoadCalibration(data []byte) (*Calibration, error) {
	var p calibrationJSON
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("timing: %w", err)
	}
	if err := p.Config.Validate(); err != nil {
		return nil, fmt.Errorf("timing: embedded config: %w", err)
	}
	want := p.Config.MaxWarpsPerSM + 1
	if len(p.SharedTx) != want {
		return nil, fmt.Errorf("timing: shared curve has %d points, want %d", len(p.SharedTx), want)
	}
	c := &Calibration{cfg: p.Config, gcache: map[gkey]float64{}}
	for cls := range p.Instr {
		if len(p.Instr[cls]) != want {
			return nil, fmt.Errorf("timing: class %d curve has %d points, want %d",
				cls, len(p.Instr[cls]), want)
		}
		for w := 1; w < want; w++ {
			if p.Instr[cls][w] <= 0 {
				return nil, fmt.Errorf("timing: class %d curve not positive at %d warps", cls, w)
			}
		}
		c.instr[cls] = p.Instr[cls]
	}
	for w := 1; w < want; w++ {
		if p.SharedTx[w] <= 0 {
			return nil, fmt.Errorf("timing: shared curve not positive at %d warps", w)
		}
	}
	c.sharedTx = p.SharedTx
	for k, v := range p.Global { //gpuperf:unordered map-to-map copy; cache lookups are keyed, never ordered
		var g gkey
		if _, err := fmt.Sscanf(k, "%d/%d/%d", &g.blocks, &g.threads, &g.trans); err != nil {
			return nil, fmt.Errorf("timing: bad global cache key %q", k)
		}
		c.gcache[g] = v
	}
	return c, nil
}
