package replay

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"prepare/internal/metrics"
	"prepare/internal/simclock"
	"prepare/internal/substrate"
)

const fuzzCSVHeader = "time_s,cpu_user,cpu_system,cpu_total,free_mem,mem_used," +
	"net_in,net_out,disk_read,disk_write,load1,load5,ctx_switch,page_faults,label"

// FuzzParseCSVTrace throws arbitrary bytes at the trace CSV parser and
// checks the contract the replay substrate depends on: malformed input
// is rejected with an error (never a panic), and accepted input
// round-trips through the writer preserving every sample's time and
// label.
func FuzzParseCSVTrace(f *testing.F) {
	f.Add([]byte(fuzzCSVHeader + "\n" +
		"1,1.0,1.1,1.2,1.3,1.4,1.5,1.6,1.7,1.8,1.9,2.0,2.1,2.2,normal\n" +
		"2,2.0,2.1,2.2,2.3,2.4,2.5,2.6,2.7,2.8,2.9,3.0,3.1,3.2,abnormal\n"))
	f.Add([]byte(fuzzCSVHeader + "\n"))
	f.Add([]byte(""))
	f.Add([]byte("time_s,label\n1,normal\n"))
	f.Add([]byte(fuzzCSVHeader + "\nx,1,1,1,1,1,1,1,1,1,1,1,1,1,normal\n"))
	f.Add([]byte(fuzzCSVHeader + "\n1,NaN,+Inf,-Inf,0,0,0,0,0,0,0,0,0,0,\n"))
	f.Add([]byte(fuzzCSVHeader + "\n5,1,1,1,1,1,1,1,1,1,1,1,1,1,bogus\n"))
	f.Add([]byte("\"unterminated,quote\n1,2\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		samples, err := metrics.ReadSamplesCSV(bytes.NewReader(data))
		if err != nil {
			return // rejected cleanly
		}
		var buf bytes.Buffer
		if err := metrics.WriteSamplesCSV(&buf, samples); err != nil {
			t.Fatalf("write-back of accepted input failed: %v", err)
		}
		again, err := metrics.ReadSamplesCSV(&buf)
		if err != nil {
			t.Fatalf("re-parse of written output failed: %v\ninput: %q", err, buf.String())
		}
		if len(again) != len(samples) {
			t.Fatalf("round trip changed sample count: %d -> %d", len(samples), len(again))
		}
		for i := range again {
			if again[i].Time != samples[i].Time {
				t.Fatalf("round trip changed row %d time: %v -> %v", i, samples[i].Time, again[i].Time)
			}
			if again[i].Label != samples[i].Label {
				t.Fatalf("round trip changed row %d label: %v -> %v", i, samples[i].Label, again[i].Label)
			}
		}

		// The replay substrate must either reject the series with an
		// error or come up usable — never panic on parsed input.
		sub, err := FromCSV(map[substrate.VMID]io.Reader{"vm1": bytes.NewReader(data)}, Config{})
		if err != nil {
			return
		}
		sub.Advance(1)
		if _, err := sub.Sample("vm1"); err != nil {
			t.Fatalf("freshly built replay substrate cannot sample: %v", err)
		}
	})
}

// refReplay is the reference model for FuzzAppendableReplay: the
// appendable substrate's semantics written the plain way, with one map
// per field and no trimming.
type refReplay struct {
	ids       []substrate.VMID
	traces    map[substrate.VMID][]metrics.Sample
	cursor    map[substrate.VMID]int
	lastTime  map[substrate.VMID]simclock.Time
	allocs    map[substrate.VMID]substrate.Allocation
	migrating map[substrate.VMID]simclock.Time
	now       simclock.Time
	advanced  bool
	actions   []Action
}

func newRefReplay(ids []substrate.VMID) *refReplay {
	m := &refReplay{
		ids:       ids,
		traces:    map[substrate.VMID][]metrics.Sample{},
		cursor:    map[substrate.VMID]int{},
		lastTime:  map[substrate.VMID]simclock.Time{},
		allocs:    map[substrate.VMID]substrate.Allocation{},
		migrating: map[substrate.VMID]simclock.Time{},
	}
	for _, id := range ids {
		m.lastTime[id] = -1
		m.allocs[id] = DefaultAllocation
	}
	return m
}

func (m *refReplay) append(id substrate.VMID, sm metrics.Sample) error {
	last, ok := m.lastTime[id]
	if !ok {
		return substrate.ErrNoSuchVM
	}
	if sm.Time.Before(last) || (m.advanced && !sm.Time.After(m.now)) {
		return errors.New("refused")
	}
	m.traces[id] = append(m.traces[id], sm)
	m.lastTime[id] = sm.Time
	return nil
}

func (m *refReplay) advance(now simclock.Time) {
	m.now, m.advanced = now, true
	for _, id := range m.ids {
		series := m.traces[id]
		i := m.cursor[id]
		for i+1 < len(series) && !now.Before(series[i+1].Time) {
			i++
		}
		m.cursor[id] = i
	}
	for id, end := range m.migrating {
		if !now.Before(end) {
			delete(m.migrating, id)
		}
	}
}

func (m *refReplay) current(id substrate.VMID) (metrics.Sample, error) {
	if _, ok := m.allocs[id]; !ok {
		return metrics.Sample{}, substrate.ErrNoSuchVM
	}
	series := m.traces[id]
	if len(series) == 0 {
		return metrics.Sample{}, ErrNoSample
	}
	return series[m.cursor[id]], nil
}

func (m *refReplay) minLastTime() simclock.Time {
	min := m.lastTime[m.ids[0]]
	for _, id := range m.ids {
		if m.lastTime[id].Before(min) {
			min = m.lastTime[id]
		}
	}
	return min
}

func (m *refReplay) actuate(now simclock.Time, id substrate.VMID, kind substrate.ActionKind, cpu, mem float64) error {
	a, ok := m.allocs[id]
	if !ok {
		return substrate.ErrNoSuchVM
	}
	if _, mig := m.migrating[id]; mig {
		return substrate.ErrMigrating
	}
	switch kind {
	case substrate.ActionScaleCPU:
		a.CPUPct = cpu
	case substrate.ActionScaleMem:
		a.MemMB = mem
	default:
		m.migrating[id] = now.Add(fuzzMigSeconds(a.MemMB))
		a = substrate.Allocation{CPUPct: cpu, MemMB: mem}
	}
	m.allocs[id] = a
	m.actions = append(m.actions, Action{Time: now, Kind: kind, VM: id, CPUPct: a.CPUPct, MemMB: a.MemMB})
	return nil
}

// fuzzMigSeconds spans zero-length to multi-second migrations.
func fuzzMigSeconds(memMB float64) int64 { return int64(memMB) % 5 }

// errClass buckets an error by the sentinel a caller can match.
func errClass(err error) string {
	switch {
	case err == nil:
		return "nil"
	case errors.Is(err, ErrNoSample):
		return "no-sample"
	case errors.Is(err, substrate.ErrNoSuchVM):
		return "no-such-vm"
	case errors.Is(err, substrate.ErrMigrating):
		return "migrating"
	}
	return "other"
}

// FuzzAppendableReplay drives random sequences of appends, advances,
// reads and actuations through an appendable substrate and the map-based
// reference model, and requires every return value and error class to
// match. Each operation takes three input bytes: the operation, a VM
// (one past the last names an unknown VM) and an argument; a "run"
// operation appends and advances many instants in a row so the series
// cross the trim threshold.
func FuzzAppendableReplay(f *testing.F) {
	f.Add([]byte{2, 0, 0, 5, 0, 0, 1, 0, 3, 2, 0, 0, 0, 1, 0, 4, 0, 0})
	f.Add([]byte{1, 9, 0, 200, 1, 0, 150, 2, 1, 0, 8, 0, 3, 3, 0, 0, 1, 0, 9})
	f.Add([]byte{3, 0, 1, 5, 8, 0, 0, 1, 0, 4, 0, 0, 1, 0, 0, 8, 0, 0, 8, 3, 7, 6, 2, 0})
	f.Add([]byte{0, 9, 0, 255, 9, 1, 255, 0, 1, 0, 0, 1, 4, 3, 2, 5, 2, 9, 6, 1, 1, 7, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		all := []substrate.VMID{"vm0", "vm1", "vm2", "vm3"}
		ids := all[:1+int(data[0])%len(all)]
		data = data[1:]
		sub, err := NewAppendable(ids, Config{MigrationSecondsFn: fuzzMigSeconds})
		if err != nil {
			t.Fatal(err)
		}
		ref := newRefReplay(ids)
		seq := 0.0
		sample := func(at simclock.Time, arg byte) metrics.Sample {
			seq++
			var v metrics.Vector
			v[0], v[metrics.NumAttributes-1] = float64(at), seq
			return metrics.Sample{Time: at, Values: v, Label: metrics.Label(arg % 3)}
		}
		check := func(op string, got, want any) {
			t.Helper()
			if got != want {
				t.Fatalf("%s: substrate %v, model %v", op, got, want)
			}
		}
		for step := 0; len(data) >= 3; step++ {
			op, arg := data[0]%10, data[2]
			id := substrate.VMID("ghost")
			if k := int(data[1]) % (len(ids) + 1); k < len(ids) {
				id = ids[k]
			}
			data = data[3:]
			// Times land around the cursor so appends and advances are
			// sometimes refused, repeated or backwards.
			at := ref.now + simclock.Time(arg%9) - 3
			switch op {
			case 0:
				sm := sample(at, arg)
				check("Append", errClass(sub.Append(id, sm)), errClass(ref.append(id, sm)))
			case 1:
				sub.Advance(at)
				ref.advance(at)
			case 2:
				v, err := sub.Sample(id)
				want, werr := ref.current(id)
				check("Sample error", errClass(err), errClass(werr))
				check("Sample", v, want.Values)
			case 3:
				l, err := sub.Label(id)
				want, werr := ref.current(id)
				if werr != nil {
					want.Label = metrics.LabelUnknown
				}
				check("Label error", errClass(err), errClass(werr))
				check("Label", l, want.Label)
			case 4:
				lt, ok := sub.LastTime(id)
				want, wok := ref.lastTime[id]
				if !wok {
					want = -1
				}
				check("LastTime", lt, want)
				check("LastTime ok", ok, wok)
			case 5:
				check("MinLastTime", sub.MinLastTime(), ref.minLastTime())
			case 6:
				check("ScaleCPU", errClass(sub.ScaleCPU(ref.now, id, float64(arg))),
					errClass(ref.actuate(ref.now, id, substrate.ActionScaleCPU, float64(arg), 0)))
			case 7:
				check("ScaleMem", errClass(sub.ScaleMem(ref.now, id, float64(arg))),
					errClass(ref.actuate(ref.now, id, substrate.ActionScaleMem, 0, float64(arg))))
			case 8:
				check("Migrate", errClass(sub.Migrate(ref.now, id, float64(arg), float64(arg))),
					errClass(ref.actuate(ref.now, id, substrate.ActionMigrate, float64(arg), float64(arg))))
			case 9:
				// A run: append one instant to every VM, then advance
				// to it, up to 63 times over.
				for r := 0; r < int(arg)%64; r++ {
					next := ref.now + 1
					for _, vm := range ids {
						sm := sample(next, arg)
						check("run Append", errClass(sub.Append(vm, sm)), errClass(ref.append(vm, sm)))
					}
					sub.Advance(next)
					ref.advance(next)
				}
			}
			for _, vm := range ids {
				mig, err := sub.Migrating(vm)
				_, want := ref.migrating[vm]
				check("Migrating error", errClass(err), "nil")
				check("Migrating "+string(vm), mig, want)
				a, _ := sub.Allocation(vm)
				check("Allocation "+string(vm), a, ref.allocs[vm])
			}
			check("End", sub.End(), max(0, ref.maxLastTime()))
		}
		got := sub.Actions()
		check("Actions length", len(got), len(ref.actions))
		for i := range got {
			check("Action", got[i], ref.actions[i])
		}
	})
}

func (m *refReplay) maxLastTime() simclock.Time {
	end := simclock.Time(-1)
	for _, id := range m.ids {
		if end.Before(m.lastTime[id]) {
			end = m.lastTime[id]
		}
	}
	return end
}
