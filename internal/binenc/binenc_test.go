package binenc

import (
	"encoding/binary"
	"errors"
	"math"
	"reflect"
	"runtime"
	"testing"
)

// TestRoundTrip: every primitive reads back what was appended, and the
// decoder ends exactly at the end of the document.
func TestRoundTrip(t *testing.T) {
	type header struct {
		Name string `json:"name"`
		N    int    `json:"n"`
	}
	e := NewEncoder(nil)
	e.Header("TST", 7)
	e.Uvarint(300)
	e.Int(-5)
	e.Bool(true)
	e.Float64(math.Inf(-1))
	e.Floats([]float64{1.5, math.NaN(), -0.0})
	e.Ints([]int{-1, 0, 1 << 40})
	e.String("vm-1")
	e.JSON(header{Name: "a", N: 2})
	e.Section(func(b []byte) ([]byte, error) { return append(b, "inner"...), nil })
	mark := e.Begin()
	e.Uvarint(9)
	e.End(mark)
	e.Counts([][]float64{{0, 0, 3}, {math.MaxUint32, 0}, {}, {0}})
	b, err := e.Finish()
	if err != nil {
		t.Fatal(err)
	}

	d := NewDecoder(b)
	d.Header("TST", 7)
	if v := d.Uvarint(); v != 300 {
		t.Errorf("uvarint %d", v)
	}
	if v := d.Int(); v != -5 {
		t.Errorf("int %d", v)
	}
	if !d.Bool() {
		t.Error("bool false")
	}
	if v := d.Float64(); !math.IsInf(v, -1) {
		t.Errorf("float %v", v)
	}
	fs := d.Floats()
	if len(fs) != 3 || fs[0] != 1.5 || !math.IsNaN(fs[1]) || math.Float64bits(fs[2]) != math.Float64bits(-0.0) {
		t.Errorf("floats %v", fs)
	}
	if is := d.Ints(); !reflect.DeepEqual(is, []int{-1, 0, 1 << 40}) {
		t.Errorf("ints %v", is)
	}
	if s := d.String(); s != "vm-1" {
		t.Errorf("string %q", s)
	}
	var h header
	d.JSON(&h)
	if h != (header{Name: "a", N: 2}) {
		t.Errorf("header %+v", h)
	}
	if s := d.Section(); string(s) != "inner" {
		t.Errorf("section %q", s)
	}
	d.Nested(func(d *Decoder) {
		if v := d.Uvarint(); v != 9 {
			t.Errorf("nested uvarint %d", v)
		}
	})
	if c := d.Counts(); !reflect.DeepEqual(c, []float64{0, 0, 3, math.MaxUint32, 0, 0}) {
		t.Errorf("counts %v", c)
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
}

// TestCountsZeroRuns: zero cells are written as runs of at most MaxRun
// cells a byte each, across row boundaries, and read back as zeros.
func TestCountsZeroRuns(t *testing.T) {
	for _, zeros := range []int{1, MaxRun - 1, MaxRun, MaxRun + 1, 3*MaxRun + 5} {
		rows := [][]float64{make([]float64, zeros/2), make([]float64, zeros-zeros/2), {63, 64}}
		e := NewEncoder(nil)
		e.Counts(rows)
		b, err := e.Finish()
		if err != nil {
			t.Fatal(err)
		}
		runs := (zeros + MaxRun - 1) / MaxRun
		// cell count, the runs, 63 in one byte and 64 in two.
		if want := len(binary.AppendUvarint(nil, uint64(zeros+2))) + runs + 1 + 2; len(b) != want {
			t.Errorf("%d zeros: %d bytes, want %d", zeros, len(b), want)
		}
		d := NewDecoder(b)
		got := d.Counts()
		if err := d.Finish(); err != nil {
			t.Fatal(err)
		}
		want := append(make([]float64, zeros), 63, 64)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%d zeros: read back %v", zeros, got)
		}
	}
}

// TestCountsRefusesNonCounts: the encoder refuses a cell that is not a
// whole number in [0, 2^32-1].
func TestCountsRefusesNonCounts(t *testing.T) {
	for _, x := range []float64{-1, 0.5, math.MaxUint32 + 1, math.NaN(), math.Inf(1)} {
		e := NewEncoder(nil)
		e.Counts([][]float64{{1, x}})
		if _, err := e.Finish(); err == nil {
			t.Errorf("count %v encoded", x)
		}
	}
}

// countBlock is a count block of cells holding the given raw tokens.
func countBlock(cells uint64, tokens ...uint64) []byte {
	b := binary.AppendUvarint(nil, cells)
	for _, tok := range tokens {
		b = binary.AppendUvarint(b, tok)
	}
	return b
}

// TestDecodeRefusesBadCountBlocks: a count above 2^32-1, a zero run
// longer than MaxRun or past the block's end, a block with too few
// tokens, and a block claiming more cells than its bytes can cover are
// all refused.
func TestDecodeRefusesBadCountBlocks(t *testing.T) {
	for name, b := range map[string][]byte{
		"count above 2^32-1":     countBlock(1, (math.MaxUint32+1)<<1),
		"run longer than MaxRun": countBlock(MaxRun+1, MaxRun<<1|1),
		"run past the block":     countBlock(3, 3<<1|1),
		"too few tokens":         countBlock(3, 2, 4),
		"more cells than bytes":  countBlock(1 << 20),
	} {
		d := NewDecoder(b)
		if c := d.Counts(); c != nil || !errors.Is(d.Err(), ErrCorrupt) {
			t.Errorf("%s: read %v, err %v; want ErrCorrupt", name, c, d.Err())
		}
	}
	d := NewDecoder(countBlock(2, math.MaxUint32<<1, 0))
	if c := d.Counts(); d.Err() != nil || !reflect.DeepEqual(c, []float64{math.MaxUint32, 0}) {
		t.Errorf("2^32-1: read %v, err %v", c, d.Err())
	}
}

// TestDecodeSizesFromRemainingBytes: a length that the remaining bytes
// cannot back is refused before anything is sized from it.
func TestDecodeSizesFromRemainingBytes(t *testing.T) {
	huge := binary.AppendUvarint(nil, 1<<40)
	section := binary.LittleEndian.AppendUint32(nil, 10)
	for name, tc := range map[string]struct {
		b    []byte
		read func(d *Decoder)
	}{
		"floats":     {huge, func(d *Decoder) { d.Floats() }},
		"ints":       {huge, func(d *Decoder) { d.Ints() }},
		"string":     {huge, func(d *Decoder) { _ = d.String() }},
		"len":        {huge, func(d *Decoder) { d.Len(1) }},
		"counts":     {countBlock(1 << 20), func(d *Decoder) { d.Counts() }},
		"section":    {append(section, 1, 2, 3), func(d *Decoder) { d.Section() }},
		"float64":    {[]byte{1, 2, 3}, func(d *Decoder) { d.Float64() }},
		"short u32":  {[]byte{1, 2}, func(d *Decoder) { d.Section() }},
		"bool":       {[]byte{2}, func(d *Decoder) { d.Bool() }},
		"bad varint": {[]byte{0x80}, func(d *Decoder) { d.Int() }},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		d := NewDecoder(tc.b)
		tc.read(&d)
		runtime.ReadMemStats(&after)
		if !errors.Is(d.Err(), ErrCorrupt) {
			t.Errorf("%s: err %v, want ErrCorrupt", name, d.Err())
		}
		// The error message is all a refusal may allocate.
		if n := after.TotalAlloc - before.TotalAlloc; n > 4096 {
			t.Errorf("%s: %d bytes allocated before refusing", name, n)
		}
	}
}

// TestDecodeStickyAndFinish: after the first failure every read is a
// zero value, Nested fails its parent when the nested read leaves bytes
// over, and Finish refuses trailing bytes.
func TestDecodeStickyAndFinish(t *testing.T) {
	d := NewDecoder([]byte{0x80})
	d.Uvarint()
	if d.Uvarint() != 0 || d.String() != "" || d.Floats() != nil || d.Section() != nil || d.Err() == nil {
		t.Fatal("reads after a failure returned data")
	}

	e := NewEncoder(nil)
	mark := e.Begin()
	e.Uvarint(1)
	e.Uvarint(2)
	e.End(mark)
	b, _ := e.Finish()
	d = NewDecoder(b)
	d.Nested(func(d *Decoder) { d.Uvarint() })
	if !errors.Is(d.Err(), ErrCorrupt) {
		t.Errorf("nested read leaving a byte over: %v", d.Err())
	}
	d = NewDecoder([]byte{1, 2})
	d.Uvarint()
	if err := d.Finish(); !errors.Is(err, ErrCorrupt) {
		t.Errorf("trailing byte: %v", err)
	}
}

// TestHeader: the right magic and version pass; a JSON document, another
// version and another magic each fail by name.
func TestHeader(t *testing.T) {
	for name, tc := range map[string]struct {
		b    string
		want error
	}{
		"ok":          {"TST\x02", nil},
		"json":        {" \n{\"version\":1}", ErrJSON},
		"version":     {"TST\x03", ErrVersion},
		"magic":       {"XYZ\x02", ErrCorrupt},
		"short":       {"TS", ErrCorrupt},
		"empty":       {"", ErrCorrupt},
		"magic alone": {"TST", ErrCorrupt},
	} {
		d := NewDecoder([]byte(tc.b))
		d.Header("TST", 2)
		if err := d.Err(); !errors.Is(err, tc.want) || (tc.want == nil) != (err == nil) {
			t.Errorf("%s: %v, want %v", name, err, tc.want)
		}
	}
}

// FuzzCounts: decoding arbitrary bytes as a count block never panics,
// and a block it accepts holds whole counts in [0, 2^32-1] that encode
// back to a block reading the same cells.
func FuzzCounts(f *testing.F) {
	f.Add(countBlock(3, 0<<1|1, 7<<1))
	f.Add(countBlock(MaxRun+2, (MaxRun-1)<<1|1, 2, 4))
	f.Add(countBlock(1, (math.MaxUint32+1)<<1))
	f.Add(countBlock(1 << 20))
	f.Fuzz(func(t *testing.T, b []byte) {
		d := NewDecoder(b)
		cells := d.Counts()
		if d.Err() != nil {
			return
		}
		for _, x := range cells {
			if x < 0 || x > math.MaxUint32 || x != math.Trunc(x) {
				t.Fatalf("decoded cell %v", x)
			}
		}
		e := NewEncoder(nil)
		e.Counts([][]float64{cells})
		again, err := e.Finish()
		if err != nil {
			t.Fatal(err)
		}
		d = NewDecoder(again)
		if got := d.Counts(); d.Finish() != nil || !reflect.DeepEqual(got, cells) {
			t.Fatalf("re-encoded block reads %v, want %v", got, cells)
		}
	})
}
