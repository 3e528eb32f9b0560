package cluster

import (
	"fmt"
	"testing"
)

// benchFleetConfig is the sharded-kernel scaling workload, sized so that
// every shard count runs several iterations at the default -benchtime: one
// iteration is an 8-cell (16-host) staggered evacuation of 16 MiB VMs
// after a 5 s warmup, about 7 s of simulated time.
func benchFleetConfig(shards int) FleetConfig {
	return testFleetConfig(8, shards)
}

// BenchmarkShardedClusterTicksPerSecond runs the benchFleetConfig
// evacuation at 1/2/4/8 shards. The simulated work is fixed (and
// byte-identical — see TestFleetShardEquivalence), so ticks/s across the
// sub-benchmarks is the parallel kernel's wall-clock speedup. cell-ticks/s
// is the aggregate simulation throughput (ticks × cells).
func BenchmarkShardedClusterTicksPerSecond(b *testing.B) {
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			var ticks, cells int64
			for i := 0; i < b.N; i++ {
				f := NewFleet(benchFleetConfig(shards))
				if res := f.RunEvacuation(600); !res.Success() {
					b.Fatalf("evacuation incomplete: %s", res)
				}
				ticks += int64(f.Group.Now())
				cells = int64(f.Cfg.Cells)
			}
			secs := b.Elapsed().Seconds()
			b.ReportMetric(float64(ticks)/secs, "ticks/s")
			b.ReportMetric(float64(ticks*cells)/secs, "cell-ticks/s")
			b.ReportMetric(secs/float64(b.N), "s/run")
		})
	}
}
