package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestByteBoundsMatchContains pins the quantization: for every byte
// value and many random ranges, empty ones included, membership in
// the quantized byte interval must agree with ValueRange.Contains on
// the decoded value.
func TestByteBoundsMatchContains(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	vrs := []ValueRange{
		{Lo: 0, Hi: 1},
		{Lo: 1, Hi: 1},
		{Lo: 0.5, Hi: 0.5},
		{Lo: -0.3, Hi: 2},
		{Lo: 0.2, Hi: 0.200001},
		{Lo: 0, Hi: math.NaN()},
		{Lo: math.NaN(), Hi: 0.5},
		{Lo: math.Inf(-1), Hi: math.Inf(1)},
	}
	for i := 0; i < 500; i++ {
		lo := rng.Float64() * 1.2
		vrs = append(vrs, ValueRange{Lo: lo, Hi: lo + rng.Float64()})
	}
	for _, vr := range vrs {
		bLo, bHi := vr.ByteBounds()
		for b := 0; b < 256; b++ {
			inByte := b >= bLo && b < bHi
			inRange := vr.Contains(byteVal(b))
			if inByte != inRange {
				t.Fatalf("vr %v byte %d (val %.9f): byte interval [%d,%d) says %v, Contains says %v",
					vr, b, byteVal(b), bLo, bHi, inByte, inRange)
			}
		}
	}
}

// TestByteFloatKernelAgreement is the byte-domain correctness
// property: for random masks, the byte and RLE kernels of ExactCP and
// Build must agree exactly with the float references refExactCP and
// refBuild.
func TestByteFloatKernelAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for iter := 0; iter < 300; iter++ {
		w, h := 4+rng.Intn(29), 4+rng.Intn(29)
		bm := randomMask(rng, w, h)
		rm := rleOf(bm)
		for probe := 0; probe < 10; probe++ {
			roi := randomROI(rng, w, h)
			vr := randomVR(rng)
			want := refExactCP(bm, roi, vr)
			if got, rgot := ExactCP(bm, roi, vr), ExactCP(rm, roi, vr); got != want || rgot != want {
				t.Fatalf("iter %d: byte ExactCP = %d, RLE = %d, reference = %d (roi %v vr %v)", iter, got, rgot, want, roi, vr)
			}
		}
		cfg := randomConfig(rng)
		want, err := refBuild(bm, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range []*Mask{bm, rm} {
			c, err := Build(m, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(c.Cum, want) {
				t.Fatalf("iter %d: CHI (rle %v) differs from the reference:\n%v\n%v", iter, m.RLE != nil, c.Cum, want)
			}
		}
	}
}

// TestGeCounterExhaustive verifies the SWAR lane comparison for every
// threshold against every byte value, in every lane position.
func TestGeCounterExhaustive(t *testing.T) {
	for n := 0; n <= 256; n++ {
		g := geCounterFor(n)
		for b := 0; b < 256; b++ {
			want := 0
			if b >= n {
				want = 8
			}
			x := uint64(b) * swarL // byte b in all 8 lanes
			if got := popcnt(g.mask(x)); got != want {
				t.Fatalf("geCounter(%d) on byte %d: counted %d lanes, want %d", n, b, got, want)
			}
		}
	}
	// Mixed-lane spot check across all thresholds.
	x := uint64(0x00_3C_80_FF_01_7F_81_C8)
	lanes := []int{0xC8, 0x81, 0x7F, 0x01, 0xFF, 0x80, 0x3C, 0x00}
	for n := 0; n <= 256; n++ {
		want := 0
		for _, b := range lanes {
			if b >= n {
				want++
			}
		}
		if got := popcnt(geCounterFor(n).mask(x)); got != want {
			t.Fatalf("geCounter(%d) on mixed word: %d lanes, want %d", n, got, want)
		}
	}
}

func popcnt(x uint64) int {
	n := 0
	for ; x != 0; x &= x - 1 {
		n++
	}
	return n
}

// TestByteMaskAccessors covers At on a byte-backed mask.
func TestByteMaskAccessors(t *testing.T) {
	bm := NewByteMask(4, 2)
	bm.Bytes[5] = 255
	bm.Bytes[2] = 51 // 51/255 = 0.2
	if bm.At(1, 1) != 1.0 {
		t.Fatalf("byte At = %g, want 1", bm.At(1, 1))
	}
	if bm.At(2, 0) != float32(51)/255 {
		t.Fatalf("byte At = %g", bm.At(2, 0))
	}
}
