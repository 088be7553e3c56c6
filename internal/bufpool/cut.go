package bufpool

// Cut returns n bytes of their own, cut from the front of *block and capped
// at n, so that appending to them cannot reach the bytes behind; *block
// moves past them. A block with fewer than n bytes left is replaced by a
// fresh one of size bytes, and n of a quarter of size or more gets an
// allocation of its own, so that a block is never mostly one cut's tail.
//
// This is the other way this package hands out memory: one allocation per
// block, not one per record or reply, and no reference counts. A block is
// only ever cut forward, so bytes once cut are never handed out again, and
// whoever holds them (a log index, a duplicate window, the in-process
// transport) may keep them as long as it likes. The collector frees a block
// once nothing refers to any part of it.
func Cut(block *[]byte, size, n int) []byte {
	if n >= size/4 {
		return make([]byte, n)
	}
	if len(*block) < n {
		*block = make([]byte, size)
	}
	b := (*block)[:n:n]
	*block = (*block)[n:]
	return b
}
