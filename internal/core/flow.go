package core

import (
	"encoding/binary"

	"wavnet/internal/ether"
	"wavnet/internal/netsim"
	"wavnet/internal/obs"
	"wavnet/internal/rendezvous"
	"wavnet/internal/sim"
)

// Flow accounting on the hot path.
//
// The table is fixed-size and preallocated: one cache-friendly slot
// array indexed by a mixed hash of the packed flow key, probed linearly
// over a bounded window. Nothing on the update path allocates or does
// variable-cost work, so the encap/decap/drop sites can update it
// inline without disturbing the ALLOC_BUDGET gate. Like all world
// state, it is touched only on the sim event loop (see package sim).
//
// Eviction is swept off the fast path on a self-arming sim-time timer:
// flows idle past Config.FlowIdle are emitted to the configured
// obs.FlowLog as closed flow-log records and their slots freed. A full
// probe window counts an overflow and drops the sample rather than
// evicting inline — the hot path never does O(table) work.

// FlowKey identifies one flow: (VNI, src/dst MAC, src/dst IP, proto).
type FlowKey struct {
	VNI          uint32
	Src, Dst     ether.MAC
	SrcIP, DstIP netsim.IP
	// Proto is the IPv4 protocol number for IP frames and the EtherType
	// otherwise (disjoint ranges; see obs.FlowRecord.Proto).
	Proto uint16
}

// flowKeyOf fills k from one tagged frame, mirroring frameDstIP's
// parse: IPv4 frames key on (src IP, dst IP, protocol), ARP frames on
// their sender/target addresses, anything else on the EtherType alone.
func flowKeyOf(k *FlowKey, vni uint32, f *ether.Frame) {
	k.VNI = vni
	k.Src = f.Src
	k.Dst = f.Dst
	k.SrcIP, k.DstIP = 0, 0
	k.Proto = uint16(f.Type)
	switch f.Type {
	case ether.TypeIPv4:
		if len(f.Payload) >= 20 {
			k.SrcIP = netsim.IP(binary.BigEndian.Uint32(f.Payload[12:16]))
			k.DstIP = netsim.IP(binary.BigEndian.Uint32(f.Payload[16:20]))
			k.Proto = uint16(f.Payload[9])
		}
	case ether.TypeARP:
		// Inline sender/target extraction (ether.UnmarshalARP allocates
		// its result; the hot path cannot): offsets per ether.ARP.Marshal.
		if len(f.Payload) >= 28 {
			k.SrcIP = netsim.IP(binary.BigEndian.Uint32(f.Payload[14:18]))
			k.DstIP = netsim.IP(binary.BigEndian.Uint32(f.Payload[24:28]))
		}
	}
}

// macBits packs a MAC into the low 48 bits of a word.
func macBits(m ether.MAC) uint64 {
	return uint64(m[0])<<40 | uint64(m[1])<<32 | uint64(m[2])<<24 |
		uint64(m[3])<<16 | uint64(m[4])<<8 | uint64(m[5])
}

// pack folds the key into the four words the slot hash mixes.
func (k *FlowKey) pack() (k0, k1, k2, k3 uint64) {
	return uint64(k.VNI)<<32 | uint64(k.Proto),
		macBits(k.Src), macBits(k.Dst),
		uint64(k.SrcIP)<<32 | uint64(k.DstIP)
}

// mix64 is the 64-bit finalizer from MurmurHash3: full avalanche over
// the packed key words without touching memory.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// flowSlot is one table entry; st.Key is its identity while live.
type flowSlot struct {
	live bool
	st   FlowStat
}

// FlowStat is one flow's accounted state, copied out of the table.
type FlowStat struct {
	Key           FlowKey
	Bytes, Frames uint64
	Drops         [obs.FlowDropReasons]uint64
	First, Last   sim.Time
}

// DropTotal sums the stat's drops across reasons.
func (st *FlowStat) DropTotal() uint64 {
	var n uint64
	for _, d := range st.Drops {
		n += d
	}
	return n
}

// Record converts the stat to its flow-log record shape.
func (st *FlowStat) Record(host string) obs.FlowRecord {
	return obs.FlowRecord{
		Host: host,
		VNI:  st.Key.VNI, Src: st.Key.Src, Dst: st.Key.Dst,
		SrcIP: st.Key.SrcIP, DstIP: st.Key.DstIP, Proto: st.Key.Proto,
		Bytes: st.Bytes, Frames: st.Frames, Drops: st.Drops,
		First: st.First, Last: st.Last,
	}
}

const (
	defaultFlowSlots = 1024
	// flowProbeLimit bounds the linear probe: a lookup touches at most
	// this many slots before declaring overflow.
	flowProbeLimit = 16
)

// FlowTable is the fixed-size flow accounting table of one host.
type FlowTable struct {
	slots []flowSlot
	mask  uint64

	active    int
	overflows uint64
	evictions uint64

	// dropTotals aggregates drops by reason across every flow, including
	// shed and evicted ones, so scrapers and alert rules read one counter
	// per reason instead of summing a snapshot.
	dropTotals [obs.FlowDropReasons]uint64
}

// NewFlowTable preallocates a table of at least the given slot count
// (rounded up to a power of two; <=0 uses the default).
func NewFlowTable(slots int) *FlowTable {
	if slots <= 0 {
		slots = defaultFlowSlots
	}
	n := 1
	for n < slots {
		n <<= 1
	}
	return &FlowTable{slots: make([]flowSlot, n), mask: uint64(n - 1)}
}

// find returns the live slot for k, inserting into a free slot within
// the probe window when absent. nil means the window is saturated
// (counted as an overflow; the sample is shed, never the latency).
func (ft *FlowTable) find(k *FlowKey, now sim.Time) *flowSlot {
	k0, k1, k2, k3 := k.pack()
	idx := mix64(k0 ^ mix64(k1^mix64(k2^mix64(k3))))
	var free *flowSlot
	for i := uint64(0); i < flowProbeLimit; i++ {
		s := &ft.slots[(idx+i)&ft.mask]
		if !s.live {
			if free == nil {
				free = s
			}
			continue
		}
		if s.st.Key == *k {
			return s
		}
	}
	if free == nil {
		ft.overflows++
		return nil
	}
	*free = flowSlot{live: true, st: FlowStat{Key: *k, First: now, Last: now}}
	ft.active++
	return free
}

// Add accounts one frame of the flow.
func (ft *FlowTable) Add(k *FlowKey, now sim.Time, bytes uint64) {
	s := ft.find(k, now)
	if s == nil {
		return
	}
	s.st.Bytes += bytes
	s.st.Frames++
	s.st.Last = now
}

// Drop accounts one dropped frame of the flow by reason.
func (ft *FlowTable) Drop(k *FlowKey, now sim.Time, reason obs.FlowDropReason) {
	ft.dropTotals[reason]++
	s := ft.find(k, now)
	if s == nil {
		return
	}
	s.st.Drops[reason]++
	s.st.Last = now
}

// sweep evicts flows whose last activity is at least idle old, calling
// emit with each evicted flow's final state, and reports how many stay
// live. Runs off the fast path.
func (ft *FlowTable) sweep(now sim.Time, idle sim.Duration, emit func(FlowStat)) int {
	for i := range ft.slots {
		s := &ft.slots[i]
		if !s.live || now.Sub(s.st.Last) < idle {
			continue
		}
		s.live = false
		ft.active--
		ft.evictions++
		if emit != nil {
			emit(s.st)
		}
	}
	return ft.active
}

// Snapshot copies the live flows out of the table in slot order.
func (ft *FlowTable) Snapshot() []FlowStat {
	out := make([]FlowStat, 0, ft.active)
	for i := range ft.slots {
		if ft.slots[i].live {
			out = append(out, ft.slots[i].st)
		}
	}
	return out
}

// Active reports the live flow count.
func (ft *FlowTable) Active() int { return ft.active }

// Overflows reports samples shed because the probe window was full.
func (ft *FlowTable) Overflows() uint64 { return ft.overflows }

// Evictions reports flows swept out of the table.
func (ft *FlowTable) Evictions() uint64 { return ft.evictions }

// DropTotals reports the table-wide drop counts by reason (survives
// eviction and overflow shedding, unlike per-flow snapshots).
func (ft *FlowTable) DropTotals() [obs.FlowDropReasons]uint64 { return ft.dropTotals }

// ---- host integration ----

// Flows exposes the host's flow accounting table.
func (h *Host) Flows() *FlowTable { return h.flows }

// flowTx accounts one outbound frame offered to the WAV-Switch (once
// per frame, not per flood fan-out) and returns the filled scratch key
// so the caller's drop sites can charge the same flow without
// re-extracting. The returned key is valid until the next flow* call.
func (h *Host) flowTx(vni uint32, f *ether.Frame, wireLen int) *FlowKey {
	k := &h.flowScratch
	flowKeyOf(k, vni, f)
	h.flows.Add(k, h.eng.Now(), uint64(wireLen))
	h.flowTouched()
	return k
}

// flowRx accounts one decapsulated inbound frame.
func (h *Host) flowRx(vni uint32, f *ether.Frame, wireLen int) {
	k := &h.flowScratch
	flowKeyOf(k, vni, f)
	h.flows.Add(k, h.eng.Now(), uint64(wireLen))
	h.flowTouched()
}

// flowDrop charges one dropped frame against its flow by reason.
func (h *Host) flowDrop(vni uint32, f *ether.Frame, reason obs.FlowDropReason) {
	k := &h.flowScratch
	flowKeyOf(k, vni, f)
	h.flows.Drop(k, h.eng.Now(), reason)
	h.flowTouched()
}

// flowTouched arms the idle-eviction sweep: one outstanding timer while
// any flow is live, re-armed by the sweep itself and disarmed when the
// table drains, so idle hosts schedule nothing.
func (h *Host) flowTouched() {
	if h.flowSweepOn {
		return
	}
	h.flowSweepOn = true
	h.eng.Schedule(h.cfg.FlowSweepPeriod, h.flowSweepFn)
}

// flowSweep evicts idle flows off the fast path, emitting each as a
// closed flow-log record.
func (h *Host) flowSweep() {
	if h.flows.sweep(h.eng.Now(), h.cfg.FlowIdle, h.emitFlow) > 0 {
		h.eng.Schedule(h.cfg.FlowSweepPeriod, h.flowSweepFn)
		return
	}
	h.flowSweepOn = false
}

// emitFlow appends one evicted flow to the configured flow log
// (Append is nil-safe, so unconfigured hosts just drop the record).
func (h *Host) emitFlow(st FlowStat) {
	h.cfg.FlowLog.Append(st.Record(h.name))
}

// DrainFlows force-evicts every live flow into the flow log (teardown
// and experiment-end flushing; Leave calls it).
func (h *Host) DrainFlows() {
	h.flows.sweep(h.eng.Now(), 0, h.emitFlow)
}

// AccountWireDrop attributes one wire-level packet loss back to the
// flow(s) it carried. The substrate's drop hook hands the host the
// packet payload it originated (payload is only valid for the call)
// and a reason; the host unwraps a relay envelope if present and walks
// the encapsulated frame image — single, or every entry of a batch —
// charging each frame's flow. Non-frame traffic (control, pulses,
// punches) is ignored. Runs on the sim event loop via the drop hook.
func (h *Host) AccountWireDrop(payload []byte, reason obs.FlowDropReason) {
	if len(payload) == 0 {
		return
	}
	if payload[0] == rendezvous.RelayMagic {
		if len(payload) <= rendezvous.RelayHeaderLen {
			return
		}
		payload = payload[rendezvous.RelayHeaderLen:]
	}
	switch payload[0] {
	case paFrame, paFrameVNI:
		h.accountFrameDrop(payload, reason)
	case paFrameBatch:
		off := batchHeaderLen
		for off+batchLenBytes <= len(payload) {
			n := int(payload[off])<<8 | int(payload[off+1])
			off += batchLenBytes
			if n == 0 || off+n > len(payload) {
				return
			}
			h.accountFrameDrop(payload[off:off+n], reason)
			off += n
		}
	}
}

// accountFrameDrop decodes one encapsulated frame image into the reused
// scratch frame and charges its flow.
func (h *Host) accountFrameDrop(image []byte, reason obs.FlowDropReason) {
	vni, err := UnmarshalVNIFrameInto(&h.dropScratch, image)
	if err != nil {
		return
	}
	h.flowDrop(vni, &h.dropScratch, reason)
}
