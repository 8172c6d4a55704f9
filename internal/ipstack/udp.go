package ipstack

import (
	"fmt"

	"wavnet/internal/netsim"
	"wavnet/internal/sim"
)

// Datagram is a received virtual-UDP datagram.
type Datagram struct {
	From    netsim.Addr
	Payload []byte
}

// UDPSock is a bound virtual UDP socket with a receive queue and both
// callback and blocking receive interfaces.
type UDPSock struct {
	stack   *Stack
	port    uint16
	handler func(Datagram)
	queue   []Datagram
	qcap    int
	wq      sim.WaitQueue
	closed  bool

	// Stats.
	In, Out, QueueDrops uint64
}

// BindUDP binds port (0 = ephemeral). If handler is non-nil it is invoked
// per datagram; otherwise datagrams queue for Recv.
func (s *Stack) BindUDP(port uint16, handler func(Datagram)) (*UDPSock, error) {
	if port == 0 {
		p, err := s.allocPort()
		if err != nil {
			return nil, err
		}
		port = p
	} else if _, busy := s.udpPorts[port]; busy {
		return nil, fmt.Errorf("ipstack %s: UDP port %d in use", s.name, port)
	}
	u := &UDPSock{stack: s, port: port, handler: handler, qcap: 256}
	s.udpPorts[port] = u
	return u, nil
}

// Port returns the bound port.
func (u *UDPSock) Port() uint16 { return u.port }

// Addr returns the socket's full address.
func (u *UDPSock) Addr() netsim.Addr { return netsim.Addr{IP: u.stack.ip, Port: u.port} }

// SendTo emits a datagram. Payloads larger than MTU−28 return an error
// (no fragmentation).
func (u *UDPSock) SendTo(dst netsim.Addr, payload []byte) error {
	if u.closed {
		return fmt.Errorf("ipstack: send on closed socket")
	}
	if len(payload) > u.stack.cfg.MTU-IPHeaderLen-UDPHeaderLen {
		return fmt.Errorf("ipstack: datagram of %d bytes exceeds MTU", len(payload))
	}
	u.Out++
	pkt := newPacket(ProtoUDP, u.stack.ip, dst.IP, UDPHeaderLen+len(payload))
	putUDP(pkt[IPHeaderLen:], u.port, dst.Port, payload)
	u.stack.sendPacket(pkt)
	return nil
}

// Recv blocks the process until a datagram arrives; ok=false only if the
// wait is interrupted.
func (u *UDPSock) Recv(p *sim.Proc) (Datagram, bool) {
	for len(u.queue) == 0 {
		if u.closed {
			return Datagram{}, false
		}
		if !u.wq.Wait(p) {
			return Datagram{}, false
		}
	}
	d := u.queue[0]
	u.queue = u.queue[1:]
	return d, true
}

// RecvTimeout is Recv with a deadline.
func (u *UDPSock) RecvTimeout(p *sim.Proc, d sim.Duration) (Datagram, bool) {
	if len(u.queue) > 0 {
		dg := u.queue[0]
		u.queue = u.queue[1:]
		return dg, true
	}
	deadline := p.Now().Add(d)
	fired := false
	timer := sim.NewTimer(p.Engine(), func() { fired = true; p.Interrupt() })
	timer.Reset(d)
	defer func() {
		timer.Stop()
		if fired {
			// Our own deadline interrupt, not an external stop: consume
			// it so later waits on this proc are unaffected.
			p.ClearInterrupt()
		}
	}()
	for len(u.queue) == 0 {
		if !u.wq.Wait(p) {
			return Datagram{}, false
		}
		if p.Now() >= deadline && len(u.queue) == 0 {
			return Datagram{}, false
		}
	}
	dg := u.queue[0]
	u.queue = u.queue[1:]
	return dg, true
}

// Close releases the port.
func (u *UDPSock) Close() {
	if u.closed {
		return
	}
	u.closed = true
	delete(u.stack.udpPorts, u.port)
	u.wq.Broadcast()
}

func (s *Stack) onUDP(h *ipv4Header, payload []byte) {
	uh, data, err := unmarshalUDP(payload)
	if err != nil {
		s.Drops++
		return
	}
	sock, ok := s.udpPorts[uh.Dst]
	if !ok {
		s.Drops++
		return
	}
	sock.In++
	d := Datagram{From: netsim.Addr{IP: h.Src, Port: uh.Src}, Payload: data}
	if sock.handler != nil {
		sock.handler(d)
		return
	}
	if len(sock.queue) >= sock.qcap {
		sock.QueueDrops++
		return
	}
	sock.queue = append(sock.queue, d)
	sock.wq.Signal()
}
