package ipstack

import (
	"bytes"
	"testing"
)

// within reports whether p is the n-byte window of b starting at off.
func within(b, p []byte, off, n int) bool {
	if len(p) != n || off < 0 || off+n > len(b) {
		return false
	}
	return n == 0 || &b[off] == &p[0]
}

// FuzzGuestDecoders runs the guest stack's wire decoders on arbitrary
// bytes, both directly and on the payload of whatever decodes as IPv4.
// A decoder must not panic, must report at most maxSACKBlocks SACK
// blocks, and must return a payload that lies inside its input where
// the header says it does. A decoded TCP header re-encodes to the same
// bytes. Seeds live in testdata/fuzz/FuzzGuestDecoders.
func FuzzGuestDecoders(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		l4 := [][]byte{b}
		if h, p, err := unmarshalIPv4(b); err == nil {
			if !within(b, p, IPHeaderLen, h.TotalLen-IPHeaderLen) {
				t.Fatalf("IPv4 payload outside its input (total length %d of %d)", h.TotalLen, len(b))
			}
			l4 = append(l4, p)
		}
		for _, b := range l4 {
			var seg tcpSegment
			if err := unmarshalTCP(b, &seg); err == nil {
				if seg.NSACK < 0 || seg.NSACK > maxSACKBlocks {
					t.Fatalf("NSACK = %d", seg.NSACK)
				}
				hl := seg.headerLen()
				if !within(b, seg.Payload, hl, int(b[18])<<8|int(b[19])) {
					t.Fatalf("TCP payload outside its input (%d header bytes of %d)", hl, len(b))
				}
				hdr := make([]byte, hl)
				if putTCP(hdr, &seg, len(seg.Payload)) != hl || !bytes.Equal(hdr, b[:hl]) {
					t.Fatalf("TCP header re-encodes as %x, was %x", hdr, b[:hl])
				}
			}
			if h, p, err := unmarshalUDP(b); err == nil && !within(b, p, UDPHeaderLen, h.Len-UDPHeaderLen) {
				t.Fatalf("UDP payload outside its input (length %d of %d)", h.Len, len(b))
			}
			if m, err := unmarshalICMP(b); err == nil && !within(b, m.Data, ICMPHeaderLen, len(b)-ICMPHeaderLen) {
				t.Fatal("ICMP data outside its input")
			}
		}
	})
}
