package core

import (
	"encoding/binary"

	"wavnet/internal/ether"
	"wavnet/internal/netsim"
	"wavnet/internal/obs"
	"wavnet/internal/rendezvous"
	"wavnet/internal/sim"
	"wavnet/internal/stun"
)

// onPacket demultiplexes everything arriving on the WAVNet socket by the
// first payload byte: JSON control ('{'), STUN (0x00/0x01), or one of
// the Packet Assembler types.
func (h *Host) onPacket(pkt netsim.Packet) {
	if len(pkt.Payload) == 0 {
		return
	}
	switch pkt.Payload[0] {
	case '{':
		if m, err := rendezvous.Decode(pkt.Payload); err == nil {
			h.onControl(pkt.Src, m)
		}
	case 0x00, 0x01:
		if m, err := stun.Unmarshal(pkt.Payload); err == nil &&
			m.Type == stun.TypeBindingResponse && h.stunWait != nil {
			h.stunWait(m)
		}
	case paPulse:
		h.onPulse(pkt.Src)
	case paFrame, paFrameVNI:
		if t, ok := h.byAddr[pkt.Src]; ok {
			h.onTunnelFrame(t, pkt.Payload)
		}
	case paFrameBatch:
		if t, ok := h.byAddr[pkt.Src]; ok {
			t.lastHeard = h.eng.Now()
			h.onTunnelBatch(t, pkt.Payload)
		}
	case paPunch, paPunchAck:
		h.onPunch(pkt)
	case paEcho:
		h.bounceEcho(nil, pkt.Src, pkt.Payload)
	case paEchoResp:
		h.onEchoResp(pkt.Payload)
	case paVNISet:
		if t, ok := h.byAddr[pkt.Src]; ok {
			h.onVNISet(t, pkt.Payload)
		}
	case paVIPAnnounce:
		if _, ok := h.byAddr[pkt.Src]; ok {
			h.onVIPAnnounce(pkt.Payload)
		}
	case rendezvous.RelayMagic:
		h.onRelayEnvelope(pkt)
	}
}

// onRelayEnvelope unwraps broker-relayed tunnel traffic and dispatches
// the inner packet against the channel's tunnel.
func (h *Host) onRelayEnvelope(pkt netsim.Packet) {
	if len(pkt.Payload) < rendezvous.RelayHeaderLen+1 {
		return
	}
	ch := binary.BigEndian.Uint64(pkt.Payload[1:])
	t, ok := h.byChan[ch]
	if !ok {
		return
	}
	inner := pkt.Payload[rendezvous.RelayHeaderLen:]
	switch inner[0] {
	case paPulse:
		t.PulsesIn++
		t.lastHeard = h.eng.Now()
	case paFrame, paFrameVNI:
		h.onTunnelFrame(t, inner)
	case paFrameBatch:
		t.lastHeard = h.eng.Now()
		h.onTunnelBatch(t, inner)
	case paEcho:
		h.bounceEcho(t, pkt.Src, inner)
	case paEchoResp:
		h.onEchoResp(inner)
	case paVNISet:
		h.onVNISet(t, inner)
	case paVIPAnnounce:
		h.onVIPAnnounce(inner)
	}
}

// tunnelSend transmits one Packet Assembler packet over a tunnel,
// wrapping it in the relay envelope when the tunnel is brokered. The
// envelope is freshly allocated because the broker retains and
// forwards it; the frame fast path avoids this copy entirely by
// encoding with headroom (see switchFrame).
func (h *Host) tunnelSend(t *Tunnel, b []byte) {
	if !t.Relayed {
		h.sock.SendTo(t.Remote, b)
		return
	}
	wire := make([]byte, rendezvous.RelayHeaderLen+len(b))
	wire[0] = rendezvous.RelayMagic
	binary.BigEndian.PutUint64(wire[1:], t.relayChan)
	copy(wire[rendezvous.RelayHeaderLen:], b)
	h.sock.SendTo(t.Remote, wire)
}

// tunnelSendPooled is tunnelSend for control packets built in a pooled
// buffer whose receive handler does not retain the payload (pulses,
// echo bounces): the buffer is recycled at delivery on the direct path,
// or immediately after the envelope copy on the relayed path.
func (h *Host) tunnelSendPooled(t *Tunnel, buf *[]byte) {
	if !t.Relayed {
		h.sock.SendToPooled(t.Remote, buf)
		return
	}
	h.tunnelSend(t, *buf)
	netsim.PutBuf(buf)
}

// bounceEcho answers a paEcho in place: the payload is copied into a
// pooled buffer with only the type byte flipped, so both bounce paths
// (direct socket, relayed tunnel) share one allocation-free branch.
func (h *Host) bounceEcho(t *Tunnel, src netsim.Addr, payload []byte) {
	buf := netsim.GetBuf()
	*buf = append(*buf, payload...)
	(*buf)[0] = paEchoResp
	if t == nil {
		h.sock.SendToPooled(src, buf)
		return
	}
	h.tunnelSendPooled(t, buf)
}

// pulsePacket builds the 2-byte CONNECT_PULSE in a pooled buffer.
func pulsePacket() *[]byte {
	buf := netsim.GetBuf()
	*buf = append(*buf, paPulse, 0x00)
	return buf
}

// startRelay establishes a brokered tunnel from a relay-order: no
// punching is needed, but an immediate pulse registers our (possibly
// symmetric-NAT) mapping at the relay so the peer's traffic can flow.
func (h *Host) startRelay(rec rendezvous.HostRecord, ch uint64, relay netsim.Addr) {
	t, ok := h.tunnels[rec.Name]
	if ok && t.established && !t.Relayed {
		return // direct path already up; keep it
	}
	if !ok {
		t = &Tunnel{host: h, Peer: rec.Name}
		h.tunnels[rec.Name] = t
	}
	t.Relayed = true
	t.Remote = relay
	t.relayChan = ch
	h.byChan[ch] = t
	t.PulsesOut++
	h.tunnelSendPooled(t, pulsePacket())
	h.establish(t)
}

// onControl handles broker messages: RPC replies and unsolicited punch
// or relay orders. Anything arriving from the home broker's address
// refreshes its liveness clock (home-broker silence drives re-homing).
func (h *Host) onControl(src netsim.Addr, m *rendezvous.Msg) {
	if src == h.rdv {
		h.brokerSeen = h.eng.Now()
	}
	if m.Kind == "pulse-ack" {
		// The keepalive round trip. A broker that restarted answers with
		// an unknown-session code: our registration is gone and must be
		// re-asserted or lookups and connects toward us start failing.
		if src == h.rdv && m.Code == rendezvous.CodeUnknownSession {
			h.reregister()
		}
		return
	}
	if m.Kind == "punch-order" && m.Peer != nil {
		h.startPunch(*m.Peer)
		// A punch-order may double as the reply to our connect RPC; the
		// connect waiter resolves on tunnel establishment instead.
		return
	}
	if m.Kind == "relay-order" && m.Peer != nil && m.RelayChan != 0 {
		h.startRelay(*m.Peer, m.RelayChan, m.RelayAddr)
		return
	}
	if w, ok := h.waiters[m.ID]; ok {
		delete(h.waiters, m.ID)
		w(m)
	}
}

// ---- hole punching ----

// startPunch begins the probe exchange toward a peer's external mapping.
// Both sides do this at roughly the same time (the rendezvous servers
// order both), which opens the NAT mappings along both directions.
func (h *Host) startPunch(rec rendezvous.HostRecord) {
	t, ok := h.tunnels[rec.Name]
	if ok && t.established {
		return
	}
	if !ok {
		t = &Tunnel{host: h, Peer: rec.Name, Remote: rec.Mapped}
		h.tunnels[rec.Name] = t
		h.byAddr[rec.Mapped] = t
	}
	probe := h.punchPacket(paPunch)
	tries := 0
	var tick func()
	tick = func() {
		if t.established || tries >= h.cfg.PunchTries {
			return
		}
		tries++
		h.PunchesSent++
		h.sock.SendTo(t.Remote, probe)
		h.eng.Schedule(h.cfg.PunchInterval, tick)
	}
	tick()
}

// punchPacket is [type][nameLen][name]: the receiver needs to know who is
// knocking.
func (h *Host) punchPacket(typ byte) []byte {
	b := make([]byte, 2+len(h.name))
	b[0] = typ
	b[1] = byte(len(h.name))
	copy(b[2:], h.name)
	return b
}

func (h *Host) onPunch(pkt netsim.Packet) {
	if len(pkt.Payload) < 2 {
		return
	}
	n := int(pkt.Payload[1])
	if len(pkt.Payload) < 2+n {
		return
	}
	peer := string(pkt.Payload[2 : 2+n])
	h.PunchesRecv++
	t, ok := h.tunnels[peer]
	if !ok {
		// Punch from a peer we have no record for yet (their order
		// arrived before ours): adopt the observed address.
		t = &Tunnel{host: h, Peer: peer, Remote: pkt.Src}
		h.tunnels[peer] = t
		h.byAddr[pkt.Src] = t
	}
	// Adopt the observed source (authoritative over the record).
	if t.Remote != pkt.Src {
		delete(h.byAddr, t.Remote)
		t.Remote = pkt.Src
		h.byAddr[pkt.Src] = t
	}
	if pkt.Payload[0] == paPunch {
		h.sock.SendTo(pkt.Src, h.punchPacket(paPunchAck))
	}
	h.establish(t)
}

// establish marks a tunnel live and starts its CONNECT_PULSE keepalive.
func (h *Host) establish(t *Tunnel) {
	t.lastHeard = h.eng.Now()
	if t.established {
		return
	}
	t.established = true
	t.pulser = sim.NewTicker(h.eng, h.cfg.PulsePeriod, func() { h.pulse(t) })
	// Tell the far end which virtual networks we carry, so its flooding
	// can skip this tunnel for tags we would only drop.
	h.tunnelSend(t, h.vniSetPacket())
	t.announcedGen = h.vniGen
	t.sinceAnnounce = 0
	// Wake connect waiters (in registration order, deterministically).
	if ws := h.connWaiters[t.Peer]; len(ws) > 0 {
		delete(h.connWaiters, t.Peer)
		for _, w := range ws {
			w.fn()
		}
	}
}

// pulse sends the 2-byte CONNECT_PULSE and applies dead-peer detection.
func (h *Host) pulse(t *Tunnel) {
	if h.eng.Now().Sub(t.lastHeard) > h.cfg.TunnelTimeout {
		h.dropTunnel(t)
		return
	}
	t.PulsesOut++
	h.tunnelSendPooled(t, pulsePacket())
	// Ride the keepalive tick to recover lost VNI announcements: resent
	// immediately when the segment set changed, else only every
	// vniRefreshPulses (the keepalive itself stays 2 bytes).
	h.maybeAnnounceVNIs(t)
}

func (h *Host) onPulse(src netsim.Addr) {
	if t, ok := h.byAddr[src]; ok {
		t.PulsesIn++
		t.lastHeard = h.eng.Now()
	}
}

// ---- tunnel RTT probes ----

// TunnelRTT measures the round-trip time over an established tunnel.
func (h *Host) TunnelRTT(p *sim.Proc, peer string) (sim.Duration, error) {
	t, ok := h.tunnels[peer]
	if !ok || !t.established {
		return 0, ErrNoSuchTunnel
	}
	h.nextEcho++
	id := h.nextEcho
	b := make([]byte, 17)
	b[0] = paEcho
	binary.BigEndian.PutUint64(b[1:], id)
	binary.BigEndian.PutUint64(b[9:], uint64(h.eng.Now()))
	var rtt sim.Duration
	done := false
	h.echoWaiters[id] = func(d sim.Duration) {
		rtt = d
		done = true
		p.Unpark()
	}
	h.tunnelSend(t, b)
	timer := sim.NewTimer(h.eng, func() {
		if _, live := h.echoWaiters[id]; live {
			delete(h.echoWaiters, id)
			done = true
			p.Unpark()
		}
	})
	timer.Reset(h.cfg.RPCTimeout)
	for !done {
		if !p.Park() {
			delete(h.echoWaiters, id)
			timer.Stop()
			return 0, ErrInterrupted
		}
	}
	timer.Stop()
	if rtt == 0 {
		return 0, ErrTimeout
	}
	return rtt, nil
}

func (h *Host) onEchoResp(payload []byte) {
	if len(payload) < 17 {
		return
	}
	id := binary.BigEndian.Uint64(payload[1:])
	sent := sim.Time(binary.BigEndian.Uint64(payload[9:]))
	if w, ok := h.echoWaiters[id]; ok {
		delete(h.echoWaiters, id)
		w(h.eng.Now().Sub(sent))
	}
}

// ---- data path: Packet Assembler + WAV-Switch ----

// onTapFrame captures a frame leaving one segment's local bridge and
// switches it onto tunnels: known unicast goes to the one tunnel its
// VNI-scoped table names, everything else floods all established
// tunnels (the WAV-Switch behaves like an Ethernet switch whose ports
// are wide-area connections). The frame is tagged with the segment's
// VNI on the wire; receivers without a segment for that VNI drop it,
// which keeps flooded broadcast and ARP inside the tenant.
func (h *Host) onTapFrame(seg *segment, f *ether.Frame) {
	// Proxy-ARP for service VIPs: a request for a VIP this host steers
	// is answered locally and never floods the WAN (vip.go).
	if h.handleVIPARP(seg, f) {
		return
	}
	if f.WireLen() > h.SegmentMTU(seg.vni)+ether.HeaderLen {
		return // oversized for the tunnel
	}
	if h.cfg.PacketCost > 0 {
		h.eng.Schedule(h.cfg.PacketCost, func() { h.switchFrame(seg, f) })
		return
	}
	h.switchFrame(seg, f)
}

// switchFrame encapsulates one outbound frame and forwards it: known
// unicast to the one tunnel the VNI-scoped table names, everything else
// flooded in deterministic order. Frames are not sent individually:
// each admitted frame is encoded straight into its destination tunnel's
// egress batch (batch.go), which goes out as one aggregated packet —
// with in-place relay headroom per destination, so even a flood
// crossing several relayed tunnels on different channels never copies.
func (h *Host) switchFrame(seg *segment, f *ether.Frame) {
	wireLen := VNIEncapLen(seg.vni) + f.WireLen()
	// Flow accounting: one tx sample per frame offered to the switch
	// (not per flood fan-out); the extracted key stays valid for the
	// quota-drop charges below because send runs inline.
	fk := h.flowTx(seg.vni, f, wireLen)
	send := func(t *Tunnel) {
		// Per-tenant metering: a tenant over its quota drops here, at
		// the sender, per frame and before enqueue — batching never
		// changes which frames the bucket admits.
		if !h.quotaAdmit(t, seg.vni, wireLen) {
			h.flows.Drop(fk, h.eng.Now(), obs.FlowDropQuota)
			return
		}
		t.FramesOut++
		t.BytesOut += uint64(wireLen)
		h.FramesSent++
		h.enqueueFrame(t, seg.vni, f)
	}
	if !f.Dst.IsBroadcast() && !f.Dst.IsMulticast() {
		if t, ok := h.wswitch.Lookup(seg.vni, f.Dst); ok && t.established {
			send(t)
			return
		}
	}
	h.FloodedFrames++
	seg.counts.flood++
	for _, t := range h.sortedTunnels() {
		if !t.established {
			continue
		}
		// Smarter flooding: skip tunnels whose far end announced it
		// has no segment (and no peering route) for this tag — the
		// frame could only die at their isolation check.
		if !h.floodUseful(t, seg.vni) {
			h.SuppressedFloods++
			seg.counts.suppress++
			continue
		}
		send(t)
	}
}

// sortedTunnels returns tunnels in deterministic order for flooding.
// The returned slice is a reused scratch: it is only valid until the
// next call, which every caller satisfies by iterating immediately
// (sends schedule events rather than re-entering the switch).
func (h *Host) sortedTunnels() []*Tunnel {
	out := h.floodScratch[:0]
	for _, t := range h.tunnels {
		out = append(out, t)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Peer < out[j-1].Peer; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	h.floodScratch = out
	return out
}

// onTunnelFrame decapsulates a frame arriving over a tunnel (payload is
// [paFrame][frame bytes] or [paFrameVNI][vni][frame bytes]), applies
// the tenant isolation check, teaches the VNI's WAV-Switch table where
// the source MAC lives, and injects the frame into the matching
// segment's bridge through its tap.
func (h *Host) onTunnelFrame(t *Tunnel, payload []byte) {
	t.lastHeard = h.eng.Now()
	// The frame itself is the one decap allocation: its payload aliases
	// the wire buffer and the bridge retains both past this event, so
	// neither can come from a pool. The untag decode is allocation-free.
	f := new(ether.Frame)
	vni, err := UnmarshalVNIFrameInto(f, payload)
	if err != nil {
		return
	}
	t.FramesIn++
	t.BytesIn += uint64(len(payload))
	h.FramesRecv++
	seg, ok := h.segments[vni]
	if !ok {
		// No segment for the tag: either a peered network's traffic —
		// the inter-VNI gateway re-injects it when policy allows — or
		// another tenant's, which is never learned and never injected.
		if h.gatewayInject(t, vni, f) {
			return
		}
		h.CrossVNIDrops++
		h.flowDrop(vni, f, obs.FlowDropCrossVNI)
		return
	}
	h.flowRx(vni, f, len(payload))
	h.wswitch.Learn(vni, f.Src, t)
	if h.cfg.PacketCost > 0 {
		h.eng.Schedule(h.cfg.PacketCost, func() { seg.tap.Send(f) })
		return
	}
	seg.tap.Send(f)
}
