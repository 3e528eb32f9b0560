// Quickstart: build the paper's testbed, put one loaded VM under memory
// pressure, and migrate it with each of the three techniques, printing the
// comparison that is the paper's headline: Agile moves the VM several
// times faster than pre-copy while transferring the least data.
package main

import (
	"fmt"
	"os"

	"agilemig/internal/cluster"
	"agilemig/internal/core"
	"agilemig/internal/dist"
	"agilemig/internal/metrics"
	"agilemig/internal/workload"
)

func main() {
	table := metrics.NewTable(
		"Migrating a 2 GiB VM (1.5 GiB dataset, 768 MiB reservation) under load",
		"technique", "total (s)", "downtime (s)", "data (MB)", "cold pages by reference")

	for _, tech := range []core.Technique{core.PreCopy, core.PostCopy, core.Agile} {
		// A fresh testbed per run keeps the comparison fair.
		cfg := cluster.DefaultConfig()
		cfg.HostRAMBytes = 6 * cluster.GiB
		cfg.IntermediateRAMBytes = 16 * cluster.GiB
		tb := cluster.New(cfg)

		// Deploy: 2 GiB VM, 1.5 GiB key-value dataset, reservation below
		// the working set so cold pages sit on the swap device. Agile VMs
		// swap to their private VMD namespace; the baselines use the
		// host's SSD partition.
		agile := tech == core.Agile
		vm := tb.DeployVM("demo", 2*cluster.GiB, 768*cluster.MiB, agile)
		vm.LoadDataset(1536 * cluster.MiB)

		// A YCSB-style client keeps the VM busy from an external host.
		ccfg := workload.YCSB()
		ccfg.MaxOpsPerSecond = 10_000
		ccfg.WriteFraction = 0.05
		vm.AttachClient(ccfg, dist.NewUniform(vm.Store.Records()))

		// Let reclaim settle, then migrate.
		tb.RunSeconds(120)
		if _, err := tb.Migrate(vm, tech, tb.Dest, 768*cluster.MiB, core.Tuning{}); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if outcome := tb.RunUntilMigrated(vm, 2000); outcome != cluster.OutcomeCompleted {
			fmt.Fprintf(os.Stderr, "%v migration did not finish: %v\n", tech, outcome)
			os.Exit(1)
		}
		r := vm.Result
		table.AddF(tech.String(),
			fmt.Sprintf("%.1f", r.TotalSeconds),
			fmt.Sprintf("%.3f", r.DowntimeSeconds),
			fmt.Sprintf("%.0f", float64(r.BytesTransferred)/1e6),
			r.OffsetRecords)
	}
	fmt.Print(table.String())
}
