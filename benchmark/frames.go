package main

import (
	"prepare/benchmark/world"
	"prepare/internal/metrics"
	"prepare/internal/wire"
)

// framer encodes slices of a world as binary columnar ingest frames,
// just in time, through one reused wire.Batch.
type framer struct {
	w      *world.World
	wb     wire.Batch
	tenant [][]byte
	vm     [][]byte
}

func newFramer(w *world.World) *framer {
	f := &framer{w: w, tenant: make([][]byte, w.Groups()), vm: make([][]byte, w.VMs())}
	for g := range f.tenant {
		f.tenant[g] = []byte(world.GroupName(g))
	}
	for i := range f.vm {
		f.vm[i] = []byte(world.VMName(i))
	}
	return f
}

// frame appends to dst the frame carrying tenant group g's VMs
// [lo, lo+n) (group-relative) at second t, labelled with the group's
// SLO state.
func (f *framer) frame(dst []byte, g int, t int64, lo, n int) ([]byte, error) {
	f.wb.Reset(f.tenant[g])
	label := f.w.Label(g, t)
	base := g * f.w.Config().GroupSize
	var v metrics.Vector
	for i := lo; i < lo+n; i++ {
		f.w.Row(base+i, t, &v)
		f.wb.Add(f.wb.AddVM(f.vm[base+i]), t, label, v[:])
	}
	return wire.AppendBatch(dst, &f.wb)
}
