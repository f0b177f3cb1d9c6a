package metrics

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkRobustScaleInto fits one VM's training window the way a
// refit does, under each kernel this machine has: 128 rows of 13
// continuous columns (a full history), 60 (the first fit), 128 rows of
// flat columns, and 200 rows, past the sort's 128, where every kernel
// selects. Each sub-benchmark is named after the case and the kernel
// that ran.
func BenchmarkRobustScaleInto(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	window := func(n int, flat bool) [][]float64 {
		rows := make([][]float64, n)
		backing := make([]float64, n*NumAttributes)
		for i := range rows {
			rows[i] = backing[i*NumAttributes : (i+1)*NumAttributes]
			for j := range rows[i] {
				rows[i][j] = float64(j)
				if !flat {
					rows[i][j] += 10 * float64(j+1) * rng.Float64()
				}
			}
		}
		return rows
	}
	for _, c := range []struct {
		name string
		rows [][]float64
	}{
		{"128x13", window(128, false)},
		{"60x13", window(60, false)},
		{"flat128x13", window(128, true)},
		{"200x13", window(200, false)},
	} {
		for _, k := range robustKinds {
			if !robustKindAvailable(k) || (k == robustSort && len(c.rows) > 128) {
				continue
			}
			b.Run(fmt.Sprintf("%s/%s", c.name, k), func(b *testing.B) {
				center, scale := make([]float64, NumAttributes), make([]float64, NumAttributes)
				withRobustKernel(k, func() {
					var f RobustFitter
					RobustScaleInto(c.rows, center, scale, &f)
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						RobustScaleInto(c.rows, center, scale, &f)
					}
				})
			})
		}
	}
}
