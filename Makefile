GO ?= go

.PHONY: build test bench lint vet fmt

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Re-run the BENCH_kernel.json benchmarks: the raw single-engine tick
# rate, the 64-host sharded-cluster scaling run (1/2/4/8 shards), the
# VMD demand-read path (flat vs batched+readahead store), the VMD remote
# write round trip (a page and a 32-page run), the core push stream's
# cost per page, simnet's cost per delivered message and cgroup's
# clustered swap-in.
# Compare the printed numbers against the history in BENCH_kernel.json.
bench:
	$(GO) test -run '^$$' -bench BenchmarkEngineTicksPerSecond -benchtime 3s -count 3 ./internal/sim/
	$(GO) test -run '^$$' -bench BenchmarkShardedClusterTicksPerSecond -count 3 ./internal/cluster/
	$(GO) test -run '^$$' -bench 'BenchmarkVMD(DemandRead|Write)' -count 3 ./internal/vmd/
	$(GO) test -run '^$$' -bench BenchmarkCorePushPage -count 3 ./internal/core/
	$(GO) test -run '^$$' -bench BenchmarkSimnetDeliver -count 3 ./internal/simnet/
	$(GO) test -run '^$$' -bench BenchmarkCgroupFaultInCluster -count 3 ./internal/cgroup/

# Run the agilelint suite (detrand, maporder, emitnil, unitcheck,
# tickdrift, shardsafe, plus the flow-sensitive dettaint, phasecheck and
# outcomecheck) over the whole repository through the vet driver — the
# same invocation CI's lint job uses. See DESIGN.md §"Statically
# enforced invariants" for what each analyzer proves.
lint:
	$(GO) build -o agilelint ./cmd/agilelint && $(GO) vet -vettool=./agilelint ./...

vet:
	$(GO) vet ./...

fmt:
	gofmt -l -w cmd internal examples
