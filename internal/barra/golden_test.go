package barra_test

// Golden-statistics tests: the Stats of the three paper kernels are
// pinned to fingerprints recorded before the zero-allocation hot-path
// rewrite, so any engine change that perturbs a single counter — or a
// single byte of final device memory — fails loudly. The fingerprint
// is a SHA-256 over a canonical (sorted-key) rendering of Stats plus
// the final memory image.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"testing"

	"gpuperf/internal/barra"
)

// canonicalStats renders Stats deterministically: map keys sorted,
// every counter printed.
func canonicalStats(st *barra.Stats) string {
	var b strings.Builder
	stage := func(s *barra.StageStats) {
		fmt.Fprintf(&b, "wi=%d byclass=%v fmad=%d sa=%d stx=%d stxnc=%d sb=%d gtx=%d gb=%d gub=%d www=%d\n",
			s.WarpInstrs, s.ByClass, s.FMADs, s.SharedAccesses, s.SharedTx,
			s.SharedTxNoConflict, s.SharedBytes, s.Global.Transactions,
			s.Global.Bytes, s.GlobalUsefulBytes, s.WarpsWithWork)
	}
	fmt.Fprintf(&b, "grid=%d block=%d barriers=%d\ntotal: ", st.Grid, st.Block, st.Barriers)
	stage(&st.Total)
	for i := range st.Stages {
		fmt.Fprintf(&b, "stage %d: ", i)
		stage(&st.Stages[i])
	}
	segs := make([]int, 0, len(st.GlobalAt))
	for seg := range st.GlobalAt {
		segs = append(segs, seg)
	}
	sort.Ints(segs)
	for _, seg := range segs {
		t := st.GlobalAt[seg]
		fmt.Fprintf(&b, "globalAt[%d]: tx=%d bytes=%d\n", seg, t.Transactions, t.Bytes)
	}
	regions := make([]string, 0, len(st.RegionTraffic))
	for name := range st.RegionTraffic {
		regions = append(regions, name)
	}
	sort.Strings(regions)
	for _, name := range regions {
		fmt.Fprintf(&b, "region %q useful=%d\n", name, st.RegionUseful[name])
		for _, seg := range segs {
			t := st.RegionTraffic[name][seg]
			fmt.Fprintf(&b, "region %q [%d]: tx=%d bytes=%d\n", name, seg, t.Transactions, t.Bytes)
		}
	}
	return b.String()
}

func fingerprint(st *barra.Stats, mem []uint32) string {
	h := sha256.New()
	h.Write([]byte(canonicalStats(st)))
	var w [4]byte
	for _, v := range mem {
		w[0], w[1], w[2], w[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
		h.Write(w[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// goldenFingerprints of the three paper kernels were recorded on the
// first sharded engine, before the zero-allocation rewrite, which must
// reproduce them bit-identically. matmul-naive's was recorded on the
// engine that merged per-block shards in block order, before each
// worker summed its own.
var goldenFingerprints = map[string]string{
	"matmul16":       "8813873cb56505c98c47367757a1bb651e446067c3408182b125661acd3aa6a7",
	"spmv-bell-imiv": "6560b24ebde310e86677e706d3cf092c023c1c95f19fd3d6e83c121ef8cb8fa9",
	"cr":             "cbd79300f1d0bc82874c70b00fc381f02cae7d2cb3065380f636177a6702d499",
	"matmul-naive":   "4eaa2bd7edefa31bb9af8ae38814447eacd9c7ec59379b64aca8ad93e802f649",
}

func TestGoldenStats(t *testing.T) {
	for _, c := range detCases() {
		t.Run(c.name, func(t *testing.T) {
			want, ok := goldenFingerprints[c.name]
			if !ok {
				t.Fatalf("no golden recorded for %q", c.name)
			}
			st, mem := runAt(t, c, 1)
			got := fingerprint(st, mem)
			if got != want {
				t.Errorf("fingerprint drift: got %s want %s\ncanonical stats:\n%s",
					got, want, canonicalStats(st))
			}
		})
	}
}

// goldenEngine pins each golden launch's engine counters — blocks
// simulated and replayed, batched runs and the instructions they
// covered — at every parallelism: the fingerprint above leaves
// Engine out, so only this test notices a change in how the engine
// batches or replays.
var goldenEngine = map[string]barra.EngineStats{
	"matmul16":       {BlocksSimulated: 1, BlocksReplayed: 15, BatchedRuns: 4128, BatchedInstrs: 67840},
	"spmv-bell-imiv": {BlocksSimulated: 1, BlocksReplayed: 7, BatchedRuns: 2912, BatchedInstrs: 4384},
	"cr":             {BlocksSimulated: 1, BlocksReplayed: 15, BatchedRuns: 3792, BatchedInstrs: 11680},
	"matmul-naive":   {BlocksSimulated: 32, BlocksReplayed: 224, BatchedRuns: 66048, BatchedInstrs: 335360},
}

func TestGoldenEngineStats(t *testing.T) {
	for _, c := range detCases() {
		t.Run(c.name, func(t *testing.T) {
			for _, p := range parallelisms {
				st, _ := runAt(t, c, p)
				if want := goldenEngine[c.name]; st.Engine != want {
					t.Errorf("P=%d: Engine = %+v, want %+v", p, st.Engine, want)
				}
			}
		})
	}
}
