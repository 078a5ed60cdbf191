package barra

import (
	"reflect"
	"testing"
	"unsafe"
)

// fillDistinct sets every int64 reachable from v — struct fields,
// unexported ones included, array and slice elements — to
// consecutive values from *next.
func fillDistinct(v reflect.Value, next *int64) {
	switch v.Kind() {
	case reflect.Int64:
		*next++
		v.SetInt(*next)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f := v.Field(i)
			fillDistinct(reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem(), next)
		}
	case reflect.Array, reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			fillDistinct(v.Index(i), next)
		}
	case reflect.Pointer:
		fillDistinct(v.Elem(), next)
	}
}

// TestAccumulateCoversEveryField: folding a shard in with sign 1 and
// out again with sign −1 must touch every counter. A field the shard
// arithmetic skips would count a replayed block's variant accesses
// twice, and only on kernels whose data-addressed accesses touch that
// field.
func TestAccumulateCoversEveryField(t *testing.T) {
	var src StageStats
	next := int64(0)
	fillDistinct(reflect.ValueOf(&src).Elem(), &next)
	var dst StageStats
	accumulate(&dst, &src, 1)
	if dst != src {
		t.Errorf("accumulate sign 1 into zero:\ngot  %+v\nwant %+v", dst, src)
	}
	accumulate(&dst, &src, -1)
	if dst != (StageStats{}) {
		t.Errorf("accumulate sign -1 left %+v, want zero", dst)
	}

	sc := &statsCollector{
		regions: []Region{{Name: "a", Lo: 0, Hi: 64}, {Name: "b", Lo: 64, Hi: 128}},
		segs:    []int{32, 16, 4},
	}
	bsrc := sc.shard()
	bsrc.stage(1) // two stages
	next = 0
	fillDistinct(reflect.ValueOf(bsrc), &next)
	bdst := sc.shard()
	bdst.add(bsrc, 1)
	if !reflect.DeepEqual(bdst, bsrc) {
		t.Errorf("blockStats.add sign 1 into zero:\ngot  %+v\nwant %+v", bdst, bsrc)
	}
	bdst.add(bsrc, -1)
	zero := sc.shard()
	zero.stage(1)
	if !reflect.DeepEqual(bdst, zero) {
		t.Errorf("blockStats.add sign -1 left %+v, want zero", bdst)
	}
}
