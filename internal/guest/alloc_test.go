package guest

import (
	"testing"

	"agilemig/internal/cgroup"
	"agilemig/internal/mem"
	"agilemig/internal/sim"
)

// pageBackend is a per-VM swap device that maps each page to its own slot
// (like the VMD namespace) and completes every I/O one tick later.
type pageBackend struct{ eng *sim.Engine }

func (b pageBackend) SlotFor(p mem.PageID) (uint32, bool) { return uint32(p), true }
func (b pageBackend) Release(uint32)                      {}
func (b pageBackend) WritePage(_ uint32, done func())     { b.eng.After(1, done) }
func (b pageBackend) ReadPage(_ uint32, done func())      { b.eng.After(1, done) }
func (b pageBackend) ReadCluster(_ []uint32, done func()) { b.eng.After(1, done) }

func TestSwappedFaultAllocatesNothing(t *testing.T) {
	const pages, resident = 64, 32
	eng := sim.NewEngine(1)
	vm := New(eng, "vm0", pages*mem.PageSize)
	vm.AttachGroup(cgroup.New(eng, "vm0", vm.Table(), pageBackend{eng}, resident*mem.PageSize))
	vm.Resume()
	vm.BulkPopulate(0, pages)
	eng.Run(eng.Now() + 100) // reclaim pushes the excess to swap

	completed := 0
	done := func() { completed++ }
	next := mem.PageID(0)
	fault := func() {
		// Fault in the next swapped page; reclaim evicts another to make room.
		for vm.Table().State(next) != mem.StateSwapped {
			next = (next + 1) % pages
		}
		if vm.Access(next, false, done) {
			t.Fatalf("access to swapped page %d did not stall", next)
		}
		eng.Run(eng.Now() + 10)
	}
	for i := 0; i < 100; i++ {
		fault()
	}
	if n := testing.AllocsPerRun(100, fault); n != 0 {
		t.Errorf("%v allocs per swapped-page fault, want 0", n)
	}
	if completed != 201 || vm.Faults() != 201 {
		t.Fatalf("%d faults completed of %d taken, want 201", completed, vm.Faults())
	}
}
