package wire

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"xorbp/internal/cpu"
)

// The hand-written codec must write exactly what encoding/json writes
// for the tagged wire types. These tests use encoding/json as the
// reference: values are filled field by field through reflection, so a
// field added to Spec or Result (or anything they reach) without codec
// support makes the two encodings differ.

// valueSource supplies the leaf values a fill draws from. Each kind
// cycles through its own list, so over enough draws every field takes
// every value of its kind.
type valueSource struct {
	strs   []string
	uints  []uint64
	ints   []int64
	floats []float64
	bools  []bool
	// lens sets slice lengths; a negative length makes a nil slice or
	// a nil pointer.
	lens []int

	nStr, nUint, nInt, nFloat, nBool, nLen int
}

// pick returns the next value of list and advances its cursor.
func pick[T any](list []T, cursor *int) T {
	v := list[*cursor%len(list)]
	*cursor++
	return v
}

// fill sets every exported leaf of v from src. Interface fields are left
// nil: Options carries its interfaces by name, outside the encoding.
func fill(t testing.TB, v reflect.Value, src *valueSource) {
	t.Helper()
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				fill(t, v.Field(i), src)
			}
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fill(t, v.Index(i), src)
		}
	case reflect.Slice:
		n := pick(src.lens, &src.nLen)
		if n < 0 {
			v.SetZero()
			return
		}
		v.Set(reflect.MakeSlice(v.Type(), n, n))
		for i := 0; i < n; i++ {
			fill(t, v.Index(i), src)
		}
	case reflect.Pointer:
		if pick(src.lens, &src.nLen) < 0 {
			v.SetZero()
			return
		}
		v.Set(reflect.New(v.Type().Elem()))
		fill(t, v.Elem(), src)
	case reflect.String:
		v.SetString(pick(src.strs, &src.nStr))
	case reflect.Bool:
		v.SetBool(pick(src.bools, &src.nBool))
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(pick(src.ints, &src.nInt))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(pick(src.uints, &src.nUint))
	case reflect.Float32, reflect.Float64:
		v.SetFloat(pick(src.floats, &src.nFloat))
	case reflect.Interface:
	default:
		t.Fatalf("fill: the wire codec test does not cover %s values (%s)", v.Kind(), v.Type())
	}
}

// edgeSource holds the values encoding/json treats specially.
func edgeSource() *valueSource {
	return &valueSource{
		strs: []string{
			"", "tage", `"quoted\back"`, "<a href=x>&amp;</a>", "bell\b form\f",
			"nul\x00ctl\x1f\n\r\t\x7f", "line\u2028para\u2029", "bad\xffutf8\xc3",
			"truncated\xe2\x80", "ünïcødé ✓ \U0001F600", "\ufffd",
		},
		uints:  []uint64{0, 1, 9, 10, 123_456_789, math.MaxUint32, math.MaxUint64},
		ints:   []int64{0, 1, -1, 42, -9_654, math.MaxInt64, math.MinInt64},
		floats: []float64{0, math.Copysign(0, -1), 1e-7, 1e-6, 1e21, 0.9375, math.MaxFloat64, -1e-7, 123456789.125, 5e-324, 1e20, 9.999999e-7},
		bools:  []bool{true, false},
		lens:   []int{-1, 0, 1, 2, 3},
	}
}

// encodeOrPanic returns enc()'s bytes, or ok=false when it panics.
func encodeOrPanic(enc func() []byte) (b []byte, ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	return enc(), true
}

// checkAgainstReference compares the codec's encodings of s and r with
// json.Marshal's, and checks that the result decodes back to r. A
// value json.Marshal rejects must make Encode panic.
func checkAgainstReference(t testing.TB, s Spec, r Result) {
	t.Helper()
	want, err := json.Marshal(s)
	if err != nil {
		t.Fatalf("json.Marshal(spec): %v", err)
	}
	if got := s.Encode(); !bytes.Equal(got, want) {
		t.Fatalf("Spec.Encode differs from encoding/json:\n got: %s\nwant: %s", got, want)
	}
	want, err = json.Marshal(r)
	got, ok := encodeOrPanic(r.Encode)
	if err != nil {
		if ok {
			t.Fatalf("json.Marshal rejects the result (%v) but Encode wrote %s", err, got)
		}
		return
	}
	if !ok {
		t.Fatalf("Result.Encode panicked on a value encoding/json writes as %s", want)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("Result.Encode differs from encoding/json:\n got: %s\nwant: %s", got, want)
	}
	dec, err := DecodeResult(got)
	if err != nil {
		t.Fatalf("DecodeResult(Encode()): %v\n%s", err, got)
	}
	if !reflect.DeepEqual(dec, r) {
		t.Fatalf("DecodeResult(Encode()) = %+v, want %+v", dec, r)
	}
}

// TestCodecMatchesEncodingJSON: every field, filled from every edge
// value in turn, encodes byte for byte as encoding/json encodes it.
func TestCodecMatchesEncodingJSON(t *testing.T) {
	src := edgeSource()
	for round := 0; round < 64; round++ {
		var s Spec
		var r Result
		fill(t, reflect.ValueOf(&s).Elem(), src)
		fill(t, reflect.ValueOf(&r).Elem(), src)
		checkAgainstReference(t, s, r)
		// An empty kind is omitted from the encoding; cover it too.
		s.Kind = ""
		checkAgainstReference(t, s, r)
	}
	for _, s := range []Spec{goldenSpec(), goldenAttackSpec(), {}, {Threads: []string{}}} {
		checkAgainstReference(t, s, Result{})
	}
	for _, r := range []Result{goldenResult(), goldenAttackResult(), {Others: []cpu.ThreadStats{}},
		{BTBHitRate: math.NaN()}, {BTBHitRate: math.Inf(-1)}} {
		checkAgainstReference(t, Spec{}, r)
	}
}

// FuzzWireCodec builds specs and results from fuzzed scalars and
// strings and checks them against encoding/json and the result decode
// round trip.
func FuzzWireCodec(f *testing.F) {
	f.Add("tage", "", uint64(0), uint64(1), int64(-1), 0.9375, byte(0))
	f.Add("<&>", "\u2028\xff", uint64(math.MaxUint64), uint64(10), int64(math.MinInt64), 1e-7, byte(0xff))
	f.Add("\b\f\x00\"\\", "ok", uint64(123), uint64(9), int64(7), 1e21, byte(0x5a))
	f.Fuzz(func(t *testing.T, s1, s2 string, u1, u2 uint64, i1 int64, f1 float64, shape byte) {
		src := &valueSource{
			strs:   []string{s1, s2},
			uints:  []uint64{u1, u2},
			ints:   []int64{i1, int64(u1)},
			floats: []float64{f1},
			bools:  []bool{shape&1 != 0, shape&2 != 0},
			// Each two-bit field of shape is nil (0) or a length 0–2.
			lens: []int{int(shape>>2&3) - 1, int(shape>>4&3) - 1, int(shape>>6) - 1},
		}
		var s Spec
		var r Result
		fill(t, reflect.ValueOf(&s).Elem(), src)
		fill(t, reflect.ValueOf(&r).Elem(), src)
		checkAgainstReference(t, s, r)
	})
}
