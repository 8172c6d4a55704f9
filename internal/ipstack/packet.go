// Package ipstack is the guest protocol stack that runs on top of the
// virtual link layer: ARP resolution, IPv4, ICMP echo, UDP sockets and a
// TCP Reno implementation with slow start, congestion avoidance, fast
// retransmit/recovery and RTO estimation.
//
// Every byte the paper's workloads (ping, ttcp, netperf, ApacheBench,
// MPI) move across WAVNet flows through this stack, over Ethernet frames,
// so the measured dynamics — bandwidth ramp-up, loss recovery, latency
// inflation under queueing — emerge from protocol behaviour rather than
// closed-form formulas.
//
// Deviations from wire-standard TCP/IP, chosen for simulation economy and
// documented here: header checksums are not computed (the simulated
// links do not corrupt bytes), the TCP header carries a 32-bit window (no
// window-scaling option), there is no IP fragmentation (senders respect
// the MTU), and TIME_WAIT is shortened to one second.
package ipstack

import (
	"encoding/binary"
	"errors"
	"fmt"

	"wavnet/internal/netsim"
)

// IP protocol numbers.
const (
	ProtoICMP = 1
	ProtoTCP  = 6
	ProtoUDP  = 17
)

// Header sizes.
const (
	IPHeaderLen   = 20
	ICMPHeaderLen = 8
	UDPHeaderLen  = 8
	TCPHeaderLen  = 20
)

// ipv4Header is the decoded IPv4 header (no options).
type ipv4Header struct {
	TotalLen int
	TTL      uint8
	Proto    uint8
	Src, Dst netsim.IP
}

const defaultTTL = 64

// newPacket returns an IPv4 packet with room for an n-byte payload and
// its header already written; the caller fills pkt[IPHeaderLen:]. Each
// outbound packet is built in this one buffer, headers and payload
// together.
func newPacket(proto uint8, src, dst netsim.IP, n int) []byte {
	b := make([]byte, IPHeaderLen+n)
	b[0] = 0x45
	binary.BigEndian.PutUint16(b[2:], uint16(IPHeaderLen+n))
	b[8] = defaultTTL
	b[9] = proto
	binary.BigEndian.PutUint32(b[12:], uint32(src))
	binary.BigEndian.PutUint32(b[16:], uint32(dst))
	return b
}

func unmarshalIPv4(b []byte) (ipv4Header, []byte, error) {
	if len(b) < IPHeaderLen {
		return ipv4Header{}, nil, errors.New("ipstack: short IPv4 packet")
	}
	if b[0]>>4 != 4 {
		return ipv4Header{}, nil, errors.New("ipstack: not IPv4")
	}
	h := ipv4Header{
		TotalLen: int(binary.BigEndian.Uint16(b[2:])),
		TTL:      b[8],
		Proto:    b[9],
		Src:      netsim.IP(binary.BigEndian.Uint32(b[12:])),
		Dst:      netsim.IP(binary.BigEndian.Uint32(b[16:])),
	}
	if h.TotalLen < IPHeaderLen || h.TotalLen > len(b) {
		return ipv4Header{}, nil, errors.New("ipstack: bad IPv4 length")
	}
	return h, b[IPHeaderLen:h.TotalLen], nil
}

// ICMP types.
const (
	ICMPEchoReply   = 0
	ICMPEchoRequest = 8
)

type icmpEcho struct {
	Type    uint8
	ID, Seq uint16
	Data    []byte
}

// putICMP writes m into b, which must hold ICMPHeaderLen+len(m.Data)
// bytes.
func putICMP(b []byte, m *icmpEcho) {
	b[0] = m.Type
	binary.BigEndian.PutUint16(b[4:], m.ID)
	binary.BigEndian.PutUint16(b[6:], m.Seq)
	copy(b[ICMPHeaderLen:], m.Data)
}

func unmarshalICMP(b []byte) (icmpEcho, error) {
	if len(b) < ICMPHeaderLen {
		return icmpEcho{}, errors.New("ipstack: short ICMP")
	}
	return icmpEcho{
		Type: b[0],
		ID:   binary.BigEndian.Uint16(b[4:]),
		Seq:  binary.BigEndian.Uint16(b[6:]),
		Data: b[ICMPHeaderLen:],
	}, nil
}

type udpHeader struct {
	Src, Dst uint16
	Len      int
}

// putUDP writes a UDP header and payload into b, which must hold
// UDPHeaderLen+len(payload) bytes.
func putUDP(b []byte, src, dst uint16, payload []byte) {
	binary.BigEndian.PutUint16(b[0:], src)
	binary.BigEndian.PutUint16(b[2:], dst)
	binary.BigEndian.PutUint16(b[4:], uint16(UDPHeaderLen+len(payload)))
	copy(b[UDPHeaderLen:], payload)
}

func unmarshalUDP(b []byte) (udpHeader, []byte, error) {
	if len(b) < UDPHeaderLen {
		return udpHeader{}, nil, errors.New("ipstack: short UDP")
	}
	h := udpHeader{
		Src: binary.BigEndian.Uint16(b[0:]),
		Dst: binary.BigEndian.Uint16(b[2:]),
		Len: int(binary.BigEndian.Uint16(b[4:])),
	}
	if h.Len < UDPHeaderLen || h.Len > len(b) {
		return udpHeader{}, nil, errors.New("ipstack: bad UDP length")
	}
	return h, b[UDPHeaderLen:h.Len], nil
}

// TCP flag bits.
const (
	flagFIN = 1 << 0
	flagSYN = 1 << 1
	flagRST = 1 << 2
	flagPSH = 1 << 3
	flagACK = 1 << 4
)

// maxSACKBlocks bounds the SACK ranges carried per ACK. Real TCP fits
// only 3-4 in the option space and compensates with block rotation
// across dup ACKs; we carry more blocks per ACK instead (the bytes are
// accounted on the wire), which converges to the same scoreboard.
const maxSACKBlocks = 16

// tcpSegment is the decoded form of this stack's TCP header: standard
// fields, a 32-bit advertised window in place of window scaling, and up
// to maxSACKBlocks SACK blocks carried inline (8 bytes each, after the
// fixed header). The blocks live in the segment value itself, so
// decoding into a caller's segment allocates nothing.
type tcpSegment struct {
	SrcPort, DstPort uint16
	Seq, Ack         uint32
	Flags            uint8
	Wnd              uint32
	SACK             [maxSACKBlocks][2]uint32
	NSACK            int
	Payload          []byte // the payload inside the packet, once decoded or sent
}

// headerLen is the encoded header length, SACK blocks included.
func (s *tcpSegment) headerLen() int { return TCPHeaderLen + 8*s.NSACK }

// putTCP writes s's header and SACK blocks at the front of b for a
// payload of plen bytes, and returns the header length.
func putTCP(b []byte, s *tcpSegment, plen int) int {
	binary.BigEndian.PutUint16(b[0:], s.SrcPort)
	binary.BigEndian.PutUint16(b[2:], s.DstPort)
	binary.BigEndian.PutUint32(b[4:], s.Seq)
	binary.BigEndian.PutUint32(b[8:], s.Ack)
	b[12] = s.Flags
	b[13] = byte(s.NSACK)
	binary.BigEndian.PutUint32(b[14:], s.Wnd)
	binary.BigEndian.PutUint16(b[18:], uint16(plen))
	off := TCPHeaderLen
	for _, blk := range s.SACK[:s.NSACK] {
		binary.BigEndian.PutUint32(b[off:], blk[0])
		binary.BigEndian.PutUint32(b[off+4:], blk[1])
		off += 8
	}
	return off
}

// unmarshalTCP decodes b into s. s.Payload aliases b.
func unmarshalTCP(b []byte, s *tcpSegment) error {
	if len(b) < TCPHeaderLen {
		return errors.New("ipstack: short TCP segment")
	}
	ns := int(b[13])
	if ns > maxSACKBlocks {
		return errors.New("ipstack: bad SACK count")
	}
	plen := int(binary.BigEndian.Uint16(b[18:]))
	off := TCPHeaderLen
	if off+8*ns+plen > len(b) {
		return errors.New("ipstack: bad TCP payload length")
	}
	*s = tcpSegment{
		SrcPort: binary.BigEndian.Uint16(b[0:]),
		DstPort: binary.BigEndian.Uint16(b[2:]),
		Seq:     binary.BigEndian.Uint32(b[4:]),
		Ack:     binary.BigEndian.Uint32(b[8:]),
		Flags:   b[12],
		Wnd:     binary.BigEndian.Uint32(b[14:]),
		NSACK:   ns,
	}
	for i := 0; i < ns; i++ {
		s.SACK[i] = [2]uint32{
			binary.BigEndian.Uint32(b[off:]),
			binary.BigEndian.Uint32(b[off+4:]),
		}
		off += 8
	}
	s.Payload = b[off : off+plen]
	return nil
}

func (s *tcpSegment) has(flag uint8) bool { return s.Flags&flag != 0 }

func (s *tcpSegment) String() string {
	fl := ""
	for _, f := range []struct {
		bit  uint8
		name string
	}{{flagSYN, "S"}, {flagACK, "."}, {flagFIN, "F"}, {flagRST, "R"}, {flagPSH, "P"}} {
		if s.has(f.bit) {
			fl += f.name
		}
	}
	return fmt.Sprintf("tcp %d->%d seq=%d ack=%d [%s] len=%d wnd=%d",
		s.SrcPort, s.DstPort, s.Seq, s.Ack, fl, len(s.Payload), s.Wnd)
}

// Modular 32-bit sequence comparisons.
func seqLT(a, b uint32) bool  { return int32(a-b) < 0 }
func seqLEQ(a, b uint32) bool { return int32(a-b) <= 0 }
func seqGT(a, b uint32) bool  { return int32(a-b) > 0 }
func seqGEQ(a, b uint32) bool { return int32(a-b) >= 0 }

// seqCmp orders sequence numbers modularly, for slices.SortFunc.
func seqCmp(a, b uint32) int {
	switch {
	case seqLT(a, b):
		return -1
	case seqGT(a, b):
		return 1
	}
	return 0
}
func seqMax(a, b uint32) uint32 {
	if seqGT(a, b) {
		return a
	}
	return b
}
