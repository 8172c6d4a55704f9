package ether

import (
	"testing"
	"time"

	"wavnet/internal/sim"
)

func TestVNITable(t *testing.T) {
	eng := sim.NewEngine(1)
	table := NewVNITable[int](eng, 10*time.Second)
	mac := SeqMAC(1)
	lookup := func(vni uint32, want int) {
		t.Helper()
		if p, ok := table.Lookup(vni, mac); !ok || p != want {
			t.Fatalf("vni %d lookup = %v,%v, want %v,true", vni, p, ok, want)
		}
	}
	miss := func(vni uint32) {
		t.Helper()
		if p, ok := table.Lookup(vni, mac); ok {
			t.Fatalf("vni %d lookup = %v,true, want a miss", vni, p)
		}
	}

	// The same MAC in two VNIs maps to different ports.
	table.Learn(1, mac, 10)
	table.Learn(2, mac, 20)
	lookup(1, 10)
	lookup(2, 20)
	miss(3)

	// A refresh learn moves the port.
	table.Learn(1, mac, 11)
	lookup(1, 11)
	lookup(2, 20)

	// An aged entry misses and is no longer counted by Len.
	eng.RunUntil(sim.Time(5 * time.Second))
	table.Learn(2, mac, 20) // refreshed: stays fresh past VNI 1's age
	eng.RunUntil(sim.Time(11 * time.Second))
	if n := table.tables[1].Len(); n != 1 {
		t.Fatalf("vni 1 len = %d before the aged lookup, want 1", n)
	}
	miss(1)
	if n := table.tables[1].Len(); n != 0 {
		t.Fatalf("vni 1 len = %d after the aged lookup, want 0", n)
	}
	lookup(2, 20)

	// ForgetPort clears the port in every VNI.
	table.Learn(1, mac, 7)
	table.Learn(2, mac, 7)
	table.Learn(2, SeqMAC(2), 8)
	table.ForgetPort(7)
	miss(1)
	miss(2)
	if p, ok := table.Lookup(2, SeqMAC(2)); !ok || p != 8 {
		t.Fatalf("unrelated entry lost: %v,%v", p, ok)
	}

	// DropVNI forgets one VNI only.
	table.Learn(1, mac, 30)
	table.Learn(2, mac, 40)
	table.DropVNI(1)
	miss(1)
	lookup(2, 40)
	if _, ok := table.tables[1]; ok {
		t.Fatal("dropped VNI still has a table")
	}
}

// BenchmarkForwardTableSteadyState is the switch's per-frame table work
// — one refresh learn plus one unicast lookup — pinned at 0 allocs/op
// by the alloc-budget CI job.
func BenchmarkForwardTableSteadyState(b *testing.B) {
	eng := sim.NewEngine(1)
	table := NewVNITable[int](eng, 0)
	src, dst := SeqMAC(1), SeqMAC(2)
	table.Learn(42, src, 1)
	table.Learn(42, dst, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		table.Learn(42, src, 1)
		if _, ok := table.Lookup(42, dst); !ok {
			b.Fatal("miss")
		}
	}
}
