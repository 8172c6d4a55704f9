package ipstack

import "slices"

// ring is a growable byte FIFO, the storage of a TCP stream buffer.
// Bytes are written at the tail and discarded from the head; CopyAt
// reads at any offset from the head without consuming. It grows by
// doubling, and growth unwraps the contents to the start of the new
// array, so a buffer that stays under its high-water mark never
// allocates again.
type ring struct {
	buf  []byte
	head int // index of the first byte in buf
	n    int // bytes held
}

// Len reports the bytes held.
func (r *ring) Len() int { return r.n }

// Write appends p, growing the array if it does not fit.
func (r *ring) Write(p []byte) {
	if need := r.n + len(p); need > len(r.buf) {
		r.grow(need)
	}
	tail := r.head + r.n
	if tail >= len(r.buf) {
		tail -= len(r.buf)
	}
	k := copy(r.buf[tail:], p)
	copy(r.buf, p[k:])
	r.n += len(p)
}

func (r *ring) grow(need int) {
	nb := slices.Grow([]byte(nil), max(2*len(r.buf), need))
	nb = nb[:cap(nb)]
	r.CopyAt(nb, 0)
	r.buf, r.head = nb, 0
}

// CopyAt copies the bytes starting off bytes past the head into dst
// without consuming them. It returns the count copied:
// min(len(dst), Len()-off).
func (r *ring) CopyAt(dst []byte, off int) int {
	if off < 0 || off > r.n {
		panic("ipstack: ring offset out of range")
	}
	n := min(len(dst), r.n-off)
	if n == 0 {
		return 0
	}
	start := r.head + off
	if start >= len(r.buf) {
		start -= len(r.buf)
	}
	k := copy(dst[:n], r.buf[start:])
	copy(dst[k:n], r.buf)
	return n
}

// Discard drops the first k bytes.
func (r *ring) Discard(k int) {
	if k < 0 || k > r.n {
		panic("ipstack: ring discard out of range")
	}
	r.n -= k
	if r.n == 0 {
		r.head = 0
		return
	}
	r.head += k
	if r.head >= len(r.buf) {
		r.head -= len(r.buf)
	}
}

// Release drops the array of an empty ring and reports whether it did;
// it refuses a ring that still holds bytes. A released ring is still
// usable: the next Write allocates afresh.
func (r *ring) Release() bool {
	if r.n > 0 {
		return false
	}
	r.buf, r.head = nil, 0
	return true
}
