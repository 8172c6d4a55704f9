package core

import (
	"encoding/binary"
	"testing"

	"wavnet/internal/ether"
	"wavnet/internal/rendezvous"
	"wavnet/internal/sim"
)

// The benchmarks below time the per-frame work the WAV-Switch does on
// the hot data-plane path — encapsulate, decapsulate, learn, look up —
// with and without the VNI tag, to show multi-tenancy costs ~nothing.
// They drive the scratch-reuse forms the forwarding path uses
// (AppendVNIFrame into a reused buffer, UnmarshalVNIFrameInto a
// caller-owned frame, the VNI tables) and are pinned at 0 allocs/op by
// the alloc-budget CI job:
//
//	go test ./internal/core -bench='Forward|Encap' -benchmem
func benchmarkForwarding(b *testing.B, vni uint32) {
	eng := sim.NewEngine(1)
	table := ether.NewVNITable[int](eng, 0)
	f := &ether.Frame{
		Dst:     ether.SeqMAC(1),
		Src:     ether.SeqMAC(2),
		Type:    ether.TypeIPv4,
		Payload: make([]byte, 1400),
	}
	table.Learn(vni, f.Dst, 7)
	wire := make([]byte, 0, VNIEncapLen(vni)+f.WireLen())
	var got ether.Frame
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wire = AppendVNIFrame(wire[:0], vni, f)
		gotVNI, err := UnmarshalVNIFrameInto(&got, wire)
		if err != nil {
			b.Fatal(err)
		}
		table.Learn(gotVNI, got.Src, 7)
		if _, ok := table.Lookup(gotVNI, got.Dst); !ok {
			b.Fatal("lookup miss")
		}
	}
}

func BenchmarkForwardingUntagged(b *testing.B)  { benchmarkForwarding(b, 0) }
func BenchmarkForwardingVNITagged(b *testing.B) { benchmarkForwarding(b, 42) }

// BenchmarkEncapRelayWrap times the relay-envelope form of the encap:
// the frame is encoded once with RelayHeaderLen headroom and the
// 9-byte envelope header is filled in place, the way switchFrame wraps
// frames for brokered tunnels without a second buffer or copy.
func BenchmarkEncapRelayWrap(b *testing.B) {
	f := &ether.Frame{
		Dst:     ether.SeqMAC(1),
		Src:     ether.SeqMAC(2),
		Type:    ether.TypeIPv4,
		Payload: make([]byte, 1400),
	}
	const vni = 42
	buf := make([]byte, rendezvous.RelayHeaderLen, rendezvous.RelayHeaderLen+VNIEncapLen(vni)+f.WireLen())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wire := AppendVNIFrame(buf[:rendezvous.RelayHeaderLen], vni, f)
		wire[0] = rendezvous.RelayMagic
		binary.BigEndian.PutUint64(wire[1:], uint64(i))
		if len(wire) != rendezvous.RelayHeaderLen+VNIEncapLen(vni)+f.WireLen() {
			b.Fatal("bad wrap length")
		}
	}
}

// BenchmarkForwardingBatched times the batched egress hot path: per
// frame, the table lookup plus length-prefixed append into a reused
// batch buffer, and on the receive side the batch walk with the
// zero-alloc decode and refresh-learn — one op is a four-frame batch
// round trip. Pinned at 0 allocs/op by the alloc-budget CI job; the
// live path's only residual is the flush-time buffer whose ownership
// transfers to the network (amortized over the whole batch).
// BenchmarkForwardingFlowAccounted times the PR 10 hot path: the
// forwarding round trip of BenchmarkForwardingVNITagged plus inline
// flow accounting on both sides — key extraction from the decoded
// frame and one atomic table update each for tx and rx. Pinned at
// 0 allocs/op by the alloc-budget CI job: telemetry must not cost the
// data plane an allocation.
func BenchmarkForwardingFlowAccounted(b *testing.B) {
	eng := sim.NewEngine(1)
	table := ether.NewVNITable[int](eng, 0)
	ft := NewFlowTable(1024)
	const vni = 42
	f := &ether.Frame{
		Dst:     ether.SeqMAC(1),
		Src:     ether.SeqMAC(2),
		Type:    ether.TypeIPv4,
		Payload: make([]byte, 1400),
	}
	// Real IPv4 header fields so the key parse does its full work.
	f.Payload[9] = 17
	binary.BigEndian.PutUint32(f.Payload[12:], 0x0a000001)
	binary.BigEndian.PutUint32(f.Payload[16:], 0x0a000002)
	table.Learn(vni, f.Dst, 7)
	wire := make([]byte, 0, VNIEncapLen(vni)+f.WireLen())
	var got ether.Frame
	var k FlowKey
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		flowKeyOf(&k, vni, f)
		ft.Add(&k, sim.Time(i), uint64(VNIEncapLen(vni)+f.WireLen()))
		wire = AppendVNIFrame(wire[:0], vni, f)
		gotVNI, err := UnmarshalVNIFrameInto(&got, wire)
		if err != nil {
			b.Fatal(err)
		}
		flowKeyOf(&k, gotVNI, &got)
		ft.Add(&k, sim.Time(i), uint64(len(wire)))
		table.Learn(gotVNI, got.Src, 7)
		if _, ok := table.Lookup(gotVNI, got.Dst); !ok {
			b.Fatal("lookup miss")
		}
	}
	if ft.Active() == 0 {
		b.Fatal("no flow accounted")
	}
}

func BenchmarkForwardingBatched(b *testing.B) {
	eng := sim.NewEngine(1)
	table := ether.NewVNITable[int](eng, 0)
	const vni = 42
	f := &ether.Frame{
		Dst:     ether.SeqMAC(1),
		Src:     ether.SeqMAC(2),
		Type:    ether.TypeIPv4,
		Payload: make([]byte, 300),
	}
	table.Learn(vni, f.Dst, 7)
	const headroom = rendezvous.RelayHeaderLen
	buf := make([]byte, headroom+batchHeaderLen, headroom+batchHeaderLen+1500)
	buf[headroom] = paFrameBatch
	var got ether.Frame
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wire := buf[:headroom+batchHeaderLen]
		for n := 0; n < 4; n++ {
			if _, ok := table.Lookup(vni, f.Dst); !ok {
				b.Fatal("lookup miss")
			}
			wire = appendBatchFrame(wire, vni, f)
		}
		payload := wire[headroom:]
		off := batchHeaderLen
		for off+batchLenBytes <= len(payload) {
			n := int(payload[off])<<8 | int(payload[off+1])
			off += batchLenBytes
			gotVNI, err := UnmarshalVNIFrameInto(&got, payload[off:off+n])
			if err != nil {
				b.Fatal(err)
			}
			table.Learn(gotVNI, got.Src, 7)
			off += n
		}
	}
}
