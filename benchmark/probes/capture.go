package probes

import (
	"fmt"
	"sort"

	"prepare/benchmark/world"
	"prepare/internal/metrics"
	"prepare/internal/substrate"
	"prepare/internal/wire"
)

// Capture geometry: every workload's inputs are captured as the same
// small rectangle so every probe runs on every workload.
const (
	// CaptureVMs is the number of VMs captured, in CaptureGroups tenant
	// groups of CaptureGroupSize.
	CaptureVMs       = 16
	CaptureGroupSize = 4
	CaptureGroups    = CaptureVMs / CaptureGroupSize
	// CaptureTimedTicks is how many sampling instants past the training
	// prefix a full-size capture holds.
	CaptureTimedTicks = 200
)

// Capture is a slice of the inputs a workload fed the system: the rows
// of CaptureVMs of its VMs over its training prefix and the first
// CaptureTimedTicks instants of its timed window, with the SLO label
// each tenant group of four carried at each instant. Probes replay it
// through one layer at a time.
type Capture struct {
	// Seed is the workload seed the rows were generated from.
	Seed int64
	// VMs names the captured VMs; VM i belongs to group i/CaptureGroupSize.
	VMs []string
	// TrainTicks is the number of leading instants models are fit on;
	// Ticks is the total. Instant k is simulated second k*world.SamplingS.
	TrainTicks, Ticks int
	// Rows holds the captured vectors, instant-major: Rows[k*len(VMs)+i].
	Rows []metrics.Vector
	// Labels holds each group's SLO label per instant:
	// Labels[k*CaptureGroups+g].
	Labels []metrics.Label
}

// Row returns VM i's vector at instant k.
func (c *Capture) Row(k, i int) *metrics.Vector { return &c.Rows[k*len(c.VMs)+i] }

// Label returns the SLO label of VM i's group at instant k.
func (c *Capture) Label(k, i int) metrics.Label {
	return c.Labels[k*CaptureGroups+i/CaptureGroupSize]
}

// Series returns VM i's rows over instants [from, to) as float slices,
// plus the matching labels — the shape model Train calls take.
func (c *Capture) Series(i, from, to int) ([][]float64, []metrics.Label) {
	rows := make([][]float64, 0, to-from)
	labels := make([]metrics.Label, 0, to-from)
	for k := from; k < to; k++ {
		v := c.Row(k, i)
		rows = append(rows, append([]float64(nil), v[:]...))
		labels = append(labels, c.Label(k, i))
	}
	return rows, labels
}

// Samples returns VM i's labeled samples over instants [from, to).
func (c *Capture) Samples(i, from, to int) []metrics.Sample {
	out := make([]metrics.Sample, 0, to-from)
	for k := from; k < to; k++ {
		out = append(out, c.Sample(k, i))
	}
	return out
}

// Sample returns VM i's labeled sample at instant k.
func (c *Capture) Sample(k, i int) metrics.Sample {
	return metrics.Sample{Time: SimTime(k), Values: *c.Row(k, i), Label: c.Label(k, i)}
}

// CaptureWorld captures a synthetic world's inputs: the CaptureVMs VMs
// whose first recurring episode starts soonest after trainAtS (so the
// captured window holds anomalies for the alert-path probes), over the
// training prefix and the first timedTicks instants after it.
// Group labels are recomputed over the captured groups of four.
func CaptureWorld(w *world.World, trainAtS int64, timedTicks int) *Capture {
	type cand struct {
		vm    int
		start int64
	}
	cands := make([]cand, w.VMs())
	for vm := range cands {
		cands[vm] = cand{vm, w.NextEpisode(vm, trainAtS)}
	}
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].start < cands[j].start })
	n := CaptureVMs
	picked := make([]int, 0, n)
	for i := 0; len(picked) < n; i++ {
		// A world smaller than the capture repeats its VMs.
		picked = append(picked, cands[i%len(cands)].vm)
	}
	sort.Ints(picked)

	train := int(trainAtS/world.SamplingS) + 1
	c := &Capture{
		Seed:       w.Config().Seed,
		TrainTicks: train,
		Ticks:      train + timedTicks,
	}
	for i, vm := range picked {
		// A repeated VM needs a distinct name in the capture.
		c.VMs = append(c.VMs, world.VMName(vm)+string(rune('a'+i%26)))
	}
	c.Rows = make([]metrics.Vector, c.Ticks*n)
	c.Labels = make([]metrics.Label, c.Ticks*CaptureGroups)
	for k := 0; k < c.Ticks; k++ {
		t := int64(k) * world.SamplingS
		for i, vm := range picked {
			if w.Row(vm, t, c.Row(k, i)) > world.ViolatedAt {
				c.Labels[k*CaptureGroups+i/CaptureGroupSize] = metrics.LabelAbnormal
			}
		}
		for g := 0; g < CaptureGroups; g++ {
			if c.Labels[k*CaptureGroups+g] != metrics.LabelAbnormal {
				c.Labels[k*CaptureGroups+g] = metrics.LabelNormal
			}
		}
	}
	return c
}

// CaptureDataset captures the rows a closed-loop run monitored: the
// labeled per-VM series of an experiment result, VM i of the capture
// being the run's VM i modulo its VM count (an application has fewer
// VMs than the capture is wide). Sample k of every series becomes
// instant k; the first trainTicks instants are the training prefix, and
// at most timedTicks instants after it are kept.
func CaptureDataset(seed int64, order []substrate.VMID, data map[substrate.VMID][]metrics.Sample, trainTicks, timedTicks int) (*Capture, error) {
	if len(order) == 0 {
		return nil, fmt.Errorf("capture: the run has no VMs")
	}
	ticks := trainTicks + timedTicks
	for _, id := range order {
		if n := len(data[id]); n < ticks {
			ticks = n
		}
	}
	if ticks <= trainTicks {
		return nil, fmt.Errorf("capture: %d samples per VM do not cover a training prefix of %d", ticks, trainTicks)
	}
	n := CaptureVMs
	c := &Capture{Seed: seed, TrainTicks: trainTicks, Ticks: ticks}
	c.Rows = make([]metrics.Vector, ticks*n)
	c.Labels = make([]metrics.Label, ticks*CaptureGroups)
	for i := 0; i < n; i++ {
		id := order[i%len(order)]
		c.VMs = append(c.VMs, fmt.Sprintf("%s-%02d", id, i))
		for k := 0; k < ticks; k++ {
			sm := data[id][k]
			*c.Row(k, i) = sm.Values
			// The SLO label is application-wide, so every group carries it.
			c.Labels[k*CaptureGroups+i/CaptureGroupSize] = sm.Label
		}
	}
	return c, nil
}

// VMIDs returns the captured VMs as substrate IDs, in capture order.
func (c *Capture) VMIDs() []substrate.VMID {
	out := make([]substrate.VMID, len(c.VMs))
	for i, name := range c.VMs {
		out[i] = substrate.VMID(name)
	}
	return out
}

// GroupVMIDs returns the VMs of tenant group g.
func (c *Capture) GroupVMIDs(g int) []substrate.VMID {
	return c.VMIDs()[g*CaptureGroupSize : (g+1)*CaptureGroupSize]
}

// Traces returns every VM's labeled series over instants [from, to),
// the shape replay.New takes.
func (c *Capture) Traces(from, to int) map[substrate.VMID][]metrics.Sample {
	out := make(map[substrate.VMID][]metrics.Sample, len(c.VMs))
	for i, id := range c.VMIDs() {
		out[id] = c.Samples(i, from, to)
	}
	return out
}

// eachFrame encodes instants [from, to) as binary ingest frames, one
// per tenant group per instant in send order, through one reused batch
// and buffer, and hands each to emit, which must copy what it keeps.
// Every sample time is moved shift instants later, so the capture can
// be sent more than once to a server whose clocks only move forward.
func (c *Capture) eachFrame(from, to, shift int, emit func(frame []byte)) error {
	var wb wire.Batch
	var buf []byte
	for k := from; k < to; k++ {
		t := SimTime(k + shift).Seconds()
		for g := 0; g < CaptureGroups; g++ {
			wb.Reset([]byte(world.GroupName(g)))
			for i := g * CaptureGroupSize; i < (g+1)*CaptureGroupSize; i++ {
				wb.Add(wb.AddVM([]byte(c.VMs[i])), t, c.Label(k, i), c.Row(k, i)[:])
			}
			var err error
			if buf, err = wire.AppendBatch(buf[:0], &wb); err != nil {
				return err
			}
			emit(buf)
		}
	}
	return nil
}

// Frames returns the frames of eachFrame as independent slices.
func (c *Capture) Frames(from, to, shift int) ([][]byte, error) {
	frames := make([][]byte, 0, (to-from)*CaptureGroups)
	err := c.eachFrame(from, to, shift, func(f []byte) {
		frames = append(frames, append([]byte(nil), f...))
	})
	return frames, err
}
