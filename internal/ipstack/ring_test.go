package ipstack

import (
	"bytes"
	"testing"
)

// ringContents reads every byte of r without consuming.
func ringContents(r *ring) []byte {
	b := make([]byte, r.Len())
	r.CopyAt(b, 0)
	return b
}

func TestRing(t *testing.T) {
	var r ring
	r.Write([]byte("abcdefgh")) // cap 8
	r.Discard(5)                // head at 5: "fgh"
	r.Write([]byte("ijklm"))    // wraps: "fgh" at 5..7, "ijklm" at 0..4
	if len(r.buf) != 8 || r.head != 5 {
		t.Fatalf("write did not wrap in place: cap %d head %d", len(r.buf), r.head)
	}
	if got := ringContents(&r); string(got) != "fghijklm" {
		t.Fatalf("wrapped contents = %q", got)
	}
	// CopyAt across the seam, from an offset, into a short buffer.
	dst := make([]byte, 4)
	if n := r.CopyAt(dst, 1); n != 4 || string(dst) != "ghij" {
		t.Fatalf("CopyAt(1) = %d %q, want 4 \"ghij\"", n, dst)
	}
	if n := r.CopyAt(make([]byte, 10), 6); n != 2 {
		t.Fatalf("CopyAt near the tail copied %d, want 2", n)
	}
	// Growth while wrapped unwraps to the start of the new array.
	r.Write([]byte("nop"))
	if r.head != 0 || len(r.buf) < 11 {
		t.Fatalf("growth: cap %d head %d", len(r.buf), r.head)
	}
	if got := ringContents(&r); string(got) != "fghijklmnop" {
		t.Fatalf("contents after growth = %q", got)
	}
	if r.Release() {
		t.Fatal("Release dropped a non-empty ring")
	}
	r.Discard(r.Len())
	if r.Len() != 0 || r.head != 0 {
		t.Fatalf("discard to empty: len %d head %d", r.Len(), r.head)
	}
	if !r.Release() || r.buf != nil {
		t.Fatal("Release kept the array of an empty ring")
	}
	r.Write([]byte("q")) // a released ring is usable again
	if got := ringContents(&r); string(got) != "q" {
		t.Fatalf("write after release = %q", got)
	}
}

// TestRingMatchesSlice drives a ring and a plain FIFO slice with the
// same writes and discards.
func TestRingMatchesSlice(t *testing.T) {
	var r ring
	var want []byte
	next := byte(0)
	for i := 0; i < 2000; i++ {
		if w := (i*7919)%13 + 1; i%3 != 2 {
			p := make([]byte, w)
			for j := range p {
				p[j] = next
				next++
			}
			r.Write(p)
			want = append(want, p...)
		} else {
			k := min(w, len(want))
			r.Discard(k)
			want = want[k:]
		}
		if got := ringContents(&r); !bytes.Equal(got, want) {
			t.Fatalf("step %d: ring %v, want %v", i, got, want)
		}
	}
}
