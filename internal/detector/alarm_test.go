package detector

import "testing"

// sliceFilter is the reference k-of-W filter: the ring of bools the
// vote window replaced, kept here as the model the fuzz test checks the
// bit window against. It counts only the live entries since the last
// reset.
type sliceFilter struct {
	k, w    int
	ring    []bool
	n, next int
}

func (f *sliceFilter) offer(alert bool) bool {
	f.ring[f.next] = alert
	f.next = (f.next + 1) % f.w
	if f.n < f.w {
		f.n++
	}
	count := 0
	for _, a := range f.ring[:f.n] {
		if a {
			count++
		}
	}
	return count >= f.k
}

func (f *sliceFilter) reset() { f.n, f.next = 0, 0 }

// FuzzAlarmFilter drives the vote window and the slice model with the
// same random Offer/Reset sequence, K and W in [1, 64], and requires
// the same confirmation after every step. Each op byte is one step: a
// byte of 0xF0 or more resets, any other votes an alert when its low bit
// is 1.
func FuzzAlarmFilter(f *testing.F) {
	f.Add(uint8(3), uint8(4), []byte{1, 1, 0, 1, 0, 0, 0xFF, 1, 1, 1})
	f.Add(uint8(1), uint8(1), []byte{0, 1, 0, 1})
	f.Add(uint8(64), uint8(64), []byte{1, 1, 1})
	f.Add(uint8(2), uint8(63), []byte{1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0xF0, 1, 1})
	f.Fuzz(func(t *testing.T, k, w uint8, ops []byte) {
		wi := 1 + int(w)%maxAlarmW
		ki := 1 + int(k)%wi
		got, err := NewAlarmFilter(ki, wi)
		if err != nil {
			t.Fatal(err)
		}
		model := &sliceFilter{k: ki, w: wi, ring: make([]bool, wi)}
		for i, op := range ops {
			if op >= 0xF0 {
				got.Reset()
				model.reset()
				if got.Confirmed() {
					t.Fatalf("K=%d W=%d step %d: confirmed right after Reset", ki, wi, i)
				}
				continue
			}
			alert := op&1 == 1
			if g, m := got.Offer(alert), model.offer(alert); g != m {
				t.Fatalf("K=%d W=%d step %d: Offer(%t) = %t, slice model %t", ki, wi, i, alert, g, m)
			}
		}
	})
}

// TestAlarmFilterZeroValue: a filter that was never built confirms
// nothing, however many alerts it is offered.
func TestAlarmFilterZeroValue(t *testing.T) {
	var f AlarmFilter
	for i := 0; i < 70; i++ {
		if f.Offer(true) {
			t.Fatalf("zero filter confirmed after %d alerts", i+1)
		}
	}
}
