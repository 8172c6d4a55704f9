package core

import (
	"bytes"
	"encoding/binary"
	"testing"

	"wavnet/internal/ether"
	"wavnet/internal/rendezvous"
	"wavnet/internal/sim"
)

// The zero-alloc invariant of the forwarding fast path, pinned as unit
// tests: the VNI tag/untag codec and the relay-envelope wrap must not
// allocate when given caller-owned scratch. (The live path's residual
// allocations are only the per-frame wire buffer and decap Frame whose
// ownership transfers to the network and bridge.)

func allocTestFrame() *ether.Frame {
	return &ether.Frame{
		Dst:     ether.SeqMAC(1),
		Src:     ether.SeqMAC(2),
		Type:    ether.TypeIPv4,
		Payload: []byte("the quick brown fox jumps over the lazy dog"),
	}
}

func TestVNITagUntagRoundTripAllocs(t *testing.T) {
	for _, vni := range []uint32{0, 42} {
		f := allocTestFrame()
		wire := make([]byte, 0, VNIEncapLen(vni)+f.WireLen())
		var got ether.Frame
		allocs := testing.AllocsPerRun(100, func() {
			wire = AppendVNIFrame(wire[:0], vni, f)
			gotVNI, err := UnmarshalVNIFrameInto(&got, wire)
			if err != nil {
				t.Fatal(err)
			}
			if gotVNI != vni {
				t.Fatalf("vni = %d, want %d", gotVNI, vni)
			}
		})
		if allocs != 0 && !raceEnabled {
			t.Errorf("vni %d tag/untag round trip: %.1f allocs/op, want 0", vni, allocs)
		}
		if got.Dst != f.Dst || got.Src != f.Src || got.Type != f.Type || !bytes.Equal(got.Payload, f.Payload) {
			t.Fatalf("round trip mismatch: got %+v", got)
		}
	}
}

func TestRelayWrapAllocs(t *testing.T) {
	const vni, ch = uint32(42), uint64(7)
	f := allocTestFrame()
	buf := make([]byte, rendezvous.RelayHeaderLen, rendezvous.RelayHeaderLen+VNIEncapLen(vni)+f.WireLen())
	var wire []byte
	allocs := testing.AllocsPerRun(100, func() {
		wire = AppendVNIFrame(buf[:rendezvous.RelayHeaderLen], vni, f)
		wire[0] = rendezvous.RelayMagic
		binary.BigEndian.PutUint64(wire[1:], ch)
	})
	if allocs != 0 && !raceEnabled {
		t.Errorf("relay wrap: %.1f allocs/op, want 0", allocs)
	}
	// The envelope must decode back to the frame it wraps.
	if wire[0] != rendezvous.RelayMagic || binary.BigEndian.Uint64(wire[1:]) != ch {
		t.Fatal("bad relay header")
	}
	gotVNI, got, err := UnmarshalVNIFrame(wire[rendezvous.RelayHeaderLen:])
	if err != nil || gotVNI != vni {
		t.Fatalf("inner decode: vni=%d err=%v", gotVNI, err)
	}
	if got.Dst != f.Dst || !bytes.Equal(got.Payload, f.Payload) {
		t.Fatal("inner frame mismatch")
	}
}

func TestForwardTableAllocs(t *testing.T) {
	// Steady-state switch work: refresh-learn of a known MAC plus the
	// unicast lookup, both against the VNI tables.
	f := allocTestFrame()
	table := ether.NewVNITable[int](sim.NewEngine(1), 0)
	table.Learn(42, f.Dst, 1)
	table.Learn(42, f.Src, 2)
	allocs := testing.AllocsPerRun(100, func() {
		table.Learn(42, f.Src, 2)
		if _, ok := table.Lookup(42, f.Dst); !ok {
			t.Fatal("lookup miss")
		}
	})
	if allocs != 0 {
		t.Errorf("forward table steady state: %.1f allocs/op, want 0", allocs)
	}
}
