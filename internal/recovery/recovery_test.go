package recovery

import (
	"bytes"
	"math/rand"
	"os"
	"reflect"
	"testing"
	"testing/quick"

	"amcast/internal/transport"
)

func TestVectorRoundTrip(t *testing.T) {
	v := Vector{1: 100, 2: 90, 7: 5}
	got, rest, err := DecodeVector(EncodeVector(v))
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Errorf("unexpected trailing bytes: %d", len(rest))
	}
	if !reflect.DeepEqual(v, got) {
		t.Errorf("round trip: got %v want %v", got, v)
	}
}

func TestVectorRoundTripEmpty(t *testing.T) {
	got, _, err := DecodeVector(EncodeVector(Vector{}))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("expected empty vector, got %v", got)
	}
}

func TestVectorDecodeCorrupt(t *testing.T) {
	full := EncodeVector(Vector{1: 5, 2: 3})
	for i := 0; i < len(full); i++ {
		if _, _, err := DecodeVector(full[:i]); err == nil && i < len(full) {
			t.Fatalf("accepted truncation at %d", i)
		}
	}
}

func TestCompare(t *testing.T) {
	tests := []struct {
		name string
		a, b Vector
		want int
	}{
		{"equal", Vector{1: 5, 2: 3}, Vector{1: 5, 2: 3}, 0},
		{"first group decides", Vector{1: 6, 2: 3}, Vector{1: 5, 2: 9}, 1},
		{"a older", Vector{1: 4, 2: 3}, Vector{1: 5, 2: 3}, -1},
		{"same partition later", Vector{1: 10, 2: 10}, Vector{1: 10, 2: 9}, 1},
		{"missing group treated as zero", Vector{1: 1}, Vector{1: 1, 2: 0}, 0},
		{"empty vs nonempty", Vector{}, Vector{1: 1}, -1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Compare(tt.a, tt.b); got != tt.want {
				t.Errorf("Compare(%v, %v) = %d, want %d", tt.a, tt.b, got, tt.want)
			}
		})
	}
}

func TestCompareAntisymmetric(t *testing.T) {
	f := func(a1, a2, b1, b2 uint32) bool {
		a := Vector{1: uint64(a1), 2: uint64(a2)}
		b := Vector{1: uint64(b1), 2: uint64(b2)}
		return Compare(a, b) == -Compare(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	c := Checkpoint{
		Vector: Vector{1: 42, 3: 41},
		State:  []byte("the replicated state machine image"),
	}
	got, err := DecodeCheckpoint(c.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(c.Vector, got.Vector) || !bytes.Equal(c.State, got.State) {
		t.Errorf("round trip mismatch: %+v vs %+v", got, c)
	}
}

func TestCheckpointCorruptionDetected(t *testing.T) {
	c := Checkpoint{Vector: Vector{1: 1}, State: []byte("state")}
	buf := c.Encode()
	buf[len(buf)/2] ^= 0xff
	if _, err := DecodeCheckpoint(buf); err == nil {
		t.Error("corrupt checkpoint accepted")
	}
	if _, err := DecodeCheckpoint(nil); err == nil {
		t.Error("empty buffer accepted")
	}
}

func TestMemStore(t *testing.T) {
	s := NewMemStore()
	if _, ok := s.Latest(); ok {
		t.Error("empty store returned a checkpoint")
	}
	if err := s.Save(Checkpoint{Vector: Vector{1: 1}, State: []byte("a")}); err != nil {
		t.Fatal(err)
	}
	if err := s.Save(Checkpoint{Vector: Vector{1: 2}, State: []byte("b")}); err != nil {
		t.Fatal(err)
	}
	c, ok := s.Latest()
	if !ok || c.Vector[1] != 2 || string(c.State) != "b" {
		t.Errorf("Latest = %+v, %v", c, ok)
	}
	if s.Saves() != 2 {
		t.Errorf("Saves = %d", s.Saves())
	}
	// Mutating the returned checkpoint must not affect the store.
	c.State[0] = 'X'
	c2, _ := s.Latest()
	if string(c2.State) != "b" {
		t.Error("Latest must return copies")
	}
}

func TestFileStoreSaveLoad(t *testing.T) {
	dir := t.TempDir()
	s, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 5; i++ {
		err := s.Save(Checkpoint{Vector: Vector{1: i, 2: i - 1}, State: []byte{byte(i)}})
		if err != nil {
			t.Fatal(err)
		}
	}
	c, ok := s.Latest()
	if !ok || c.Vector[1] != 5 {
		t.Fatalf("Latest = %+v, %v", c, ok)
	}
	// Only 2 files retained.
	if nums := s.listNums(); len(nums) != 2 {
		t.Errorf("retained %d checkpoints, want 2", len(nums))
	}

	// A new store over the same dir picks up where we left.
	s2, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	c2, ok := s2.Latest()
	if !ok || c2.Vector[1] != 5 || c2.State[0] != 5 {
		t.Errorf("reopened Latest = %+v, %v", c2, ok)
	}
}

func TestFileStoreFallsBackOnCorruptNewest(t *testing.T) {
	dir := t.TempDir()
	s, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Save(Checkpoint{Vector: Vector{1: 1}, State: []byte("good")}); err != nil {
		t.Fatal(err)
	}
	if err := s.Save(Checkpoint{Vector: Vector{1: 2}, State: []byte("newest")}); err != nil {
		t.Fatal(err)
	}
	nums := s.listNums()
	// Corrupt the newest file.
	if err := writeJunk(s.path(nums[len(nums)-1])); err != nil {
		t.Fatal(err)
	}
	c, ok := s.Latest()
	if !ok || string(c.State) != "good" {
		t.Errorf("fallback Latest = %+v, %v; want the previous checkpoint", c, ok)
	}
}

func TestVectorClone(t *testing.T) {
	v := Vector{1: 1}
	c := v.Clone()
	c[1] = 99
	if v[1] != 1 {
		t.Error("Clone must not alias")
	}
}

func TestPredicate1TotalOrderProperty(t *testing.T) {
	// For vectors respecting Predicate 1 over groups {1,2}
	// (v[1] >= v[2]), Compare must be a total order consistent with
	// componentwise dominance.
	f := func(a1off, a2, b1off, b2 uint16) bool {
		a := Vector{1: uint64(a2) + uint64(a1off), 2: uint64(a2)}
		b := Vector{1: uint64(b2) + uint64(b1off), 2: uint64(b2)}
		cmp := Compare(a, b)
		if a[1] >= b[1] && a[2] >= b[2] && cmp < 0 {
			return false
		}
		if a[1] <= b[1] && a[2] <= b[2] && cmp > 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func writeJunk(path string) error {
	return os.WriteFile(path, []byte("junkjunkjunk"), 0o644)
}

var _ = transport.RingID(0)

// TestFileStoreCrashBeforeRename: a crash between the tmp write and the
// rename leaves a stale .tmp behind. Reopening must fall back to the
// previous intact checkpoint and sweep the leftover.
func TestFileStoreCrashBeforeRename(t *testing.T) {
	dir := t.TempDir()
	s, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Save(Checkpoint{Vector: Vector{1: 1}, State: []byte("intact")}); err != nil {
		t.Fatal(err)
	}
	// Simulate the crash: the next checkpoint's tmp exists (possibly
	// torn), the rename never happened.
	stale := s.path(2) + ".tmp"
	if err := os.WriteFile(stale, []byte("half-writt"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	c, ok := s2.Latest()
	if !ok || string(c.State) != "intact" {
		t.Fatalf("Latest after crash = %+v, %v; want the previous checkpoint", c, ok)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Error("stale .tmp not swept on reopen")
	}
	// The store keeps working past the crash point.
	if err := s2.Save(Checkpoint{Vector: Vector{1: 2}, State: []byte("post-crash")}); err != nil {
		t.Fatal(err)
	}
	if c, ok := s2.Latest(); !ok || string(c.State) != "post-crash" {
		t.Errorf("Latest after post-crash save = %+v, %v", c, ok)
	}
}

// TestFileStoreTornNewestFallsBack: a torn newest checkpoint (crash around
// the rename/dir-sync boundary before its data was fully durable) must not
// mask the previous intact one.
func TestFileStoreTornNewestFallsBack(t *testing.T) {
	dir := t.TempDir()
	s, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Save(Checkpoint{Vector: Vector{1: 1}, State: []byte("previous")}); err != nil {
		t.Fatal(err)
	}
	if err := s.Save(Checkpoint{Vector: Vector{1: 2}, State: []byte("newest-but-torn")}); err != nil {
		t.Fatal(err)
	}
	nums := s.listNums()
	newest := s.path(nums[len(nums)-1])
	buf, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(newest, buf[:len(buf)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	c, ok := s2.Latest()
	if !ok || string(c.State) != "previous" {
		t.Fatalf("Latest with torn newest = %+v, %v; want the previous checkpoint", c, ok)
	}
}

// TestCoversReadsInPlace: the coverage check over a still-encoded
// requirement agrees with decoding it and comparing entry by entry —
// have[g] >= req[g] for every g that have tracks — on random vectors, and
// the split that hands it the requirement refuses truncated input.
func TestCoversReadsInPlace(t *testing.T) {
	covers := func(have, req Vector) bool {
		for g, k := range req {
			if got, ok := have[g]; ok && got < k {
				return false
			}
		}
		return true
	}
	rng := rand.New(rand.NewSource(1))
	vector := func() Vector {
		v := make(Vector)
		for n := rng.Intn(6); n > 0; n-- {
			v[transport.RingID(1+rng.Intn(8))] = uint64(rng.Intn(4))
		}
		return v
	}
	seen := map[bool]int{}
	for i := 0; i < 5000; i++ {
		have, req := vector(), vector()
		tail := []byte("the op behind it")
		enc, rest, err := SplitVector(append(EncodeVector(req), tail...))
		if err != nil || !bytes.Equal(rest, tail) || !bytes.Equal(enc, EncodeVector(req)) {
			t.Fatalf("SplitVector(%v + tail) = %x, %q, %v", req, enc, rest, err)
		}
		dec, _, err := DecodeVector(enc)
		if err != nil || !reflect.DeepEqual(dec, req) {
			t.Fatalf("DecodeVector(SplitVector) = %v, %v, want %v", dec, err, req)
		}
		want := covers(have, dec)
		if got := have.Covers(enc); got != want {
			t.Fatalf("%v.Covers(%v) = %v, decoded comparison says %v", have, req, got, want)
		}
		seen[want]++
	}
	if seen[true] < 500 || seen[false] < 500 {
		t.Errorf("random vectors covered %d times, not %d: one side is barely tested", seen[true], seen[false])
	}
	full := EncodeVector(Vector{1: 5, 2: 3})
	for i := 0; i < len(full); i++ {
		if _, _, err := SplitVector(full[:i]); err == nil {
			t.Fatalf("SplitVector accepted truncation at %d", i)
		}
	}
	if !(Vector{1: 1}).Covers(nil) {
		t.Error("no requirement is not covered")
	}
}
