package bufpool

import (
	"bytes"
	"testing"
	"unsafe"
)

// TestCut: pieces are cut forward from one block, each capped at its own
// length, so that neither a write nor an append to one reaches another; a
// piece of a quarter block or more is an allocation of its own that leaves
// the block alone; a block too short for the next piece is replaced.
func TestCut(t *testing.T) {
	const size = 64
	var block []byte
	var pieces [][]byte
	for i, n := range []int{5, 1, 10, 0, 15, 7} {
		p := Cut(&block, size, n)
		if len(p) != n || cap(p) != n {
			t.Fatalf("piece %d: len %d cap %d, want both %d", i, len(p), cap(p), n)
		}
		for j := range p {
			p[j] = byte(i + 1)
		}
		pieces = append(pieces, p)
	}
	if len(block) != size-38 {
		t.Errorf("block has %d bytes left after 38 were cut from %d", len(block), size)
	}
	if first, second := unsafe.SliceData(pieces[0]), unsafe.SliceData(pieces[1]); uintptr(unsafe.Pointer(second))-uintptr(unsafe.Pointer(first)) != 5 {
		t.Errorf("the second piece does not follow the first in the block")
	}
	// Writing, and appending to, one piece leaves its neighbours unchanged.
	pieces[2][9] = 0xff
	_ = append(pieces[2], 0xee)
	for i, p := range pieces {
		want := bytes.Repeat([]byte{byte(i + 1)}, len(p))
		if i == 2 {
			want[9] = 0xff
		}
		if !bytes.Equal(p, want) {
			t.Errorf("piece %d = %x, want %x", i, p, want)
		}
	}

	// A quarter block or more: bytes of its own, the block where it was.
	left, at := len(block), unsafe.SliceData(block)
	big := Cut(&block, size, size/4)
	if len(big) != size/4 || cap(big) != size/4 {
		t.Errorf("quarter-block piece: len %d cap %d, want %d", len(big), cap(big), size/4)
	}
	if len(block) != left || unsafe.SliceData(block) != at {
		t.Errorf("a quarter-block piece moved the block: %d bytes left, want %d", len(block), left)
	}
	big[0] = 0xaa
	if block[0] == 0xaa {
		t.Error("the quarter-block piece aliases the block")
	}

	// A block with too few bytes left is replaced by a fresh one.
	for i := 0; len(block) >= 15 && i < size; i++ {
		Cut(&block, size, 15)
	}
	old := unsafe.SliceData(block)
	p := Cut(&block, size, 15)
	if unsafe.SliceData(p) == old || len(block) != size-15 {
		t.Errorf("an exhausted block was not replaced: %d bytes left, want %d", len(block), size-15)
	}

	if empty := Cut(&block, size, 0); len(empty) != 0 || cap(empty) != 0 {
		t.Errorf("Cut(0) = len %d cap %d, want an empty slice", len(empty), cap(empty))
	}
	if len(block) != size-15 {
		t.Errorf("Cut(0) moved the block")
	}
}
