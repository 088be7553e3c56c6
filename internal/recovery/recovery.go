// Package recovery implements the checkpointing substrate for Multi-Ring
// Paxos recovery (Section 5.2).
//
// A replica's checkpoint is identified by a tuple k_p of consensus
// instances — one entry per subscribed multicast group, in ascending
// group-id order. Because learners deliver groups round-robin in group-id
// order, Predicate 1 (x < y ⇒ k[x]_p ≥ k[y]_p) holds for every checkpoint
// a replica takes, which totally orders the checkpoints of all replicas in
// the same partition. That total order is what lets a recovering replica
// pick "the most up-to-date checkpoint" from a quorum Q_R (Predicate 3)
// and still find all later instances at the acceptors (Predicates 2–5).
package recovery

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"

	"amcast/internal/transport"
)

// Vector is a checkpoint identifier: delivered-instance high-water marks
// per multicast group (the tuple k_p of Section 5.2).
type Vector map[transport.RingID]uint64

// Clone returns a deep copy of v.
func (v Vector) Clone() Vector {
	out := make(Vector, len(v))
	for g, i := range v {
		out[g] = i
	}
	return out
}

// Compare orders two checkpoint tuples of the same partition. Tuples taken
// by replicas of one partition are totally ordered (Predicate 1), so
// comparing the entries in ascending group order lexicographically is
// consistent: the first differing group decides.
func Compare(a, b Vector) int {
	groups := make([]transport.RingID, 0, len(a)+len(b))
	seen := make(map[transport.RingID]bool)
	for g := range a {
		if !seen[g] {
			groups = append(groups, g)
			seen[g] = true
		}
	}
	for g := range b {
		if !seen[g] {
			groups = append(groups, g)
			seen[g] = true
		}
	}
	sort.Slice(groups, func(i, j int) bool { return groups[i] < groups[j] })
	for _, g := range groups {
		av, bv := a[g], b[g]
		switch {
		case av < bv:
			return -1
		case av > bv:
			return 1
		}
	}
	return 0
}

// EncodeVector serializes a vector in ascending group order.
func EncodeVector(v Vector) []byte {
	groups := make([]transport.RingID, 0, len(v))
	for g := range v {
		groups = append(groups, g)
	}
	sort.Slice(groups, func(i, j int) bool { return groups[i] < groups[j] })
	return AppendVector(make([]byte, 0, EncodedVectorLen(len(groups))), v, groups)
}

// EncodedVectorLen is the encoded size of a vector of n groups.
func EncodedVectorLen(n int) int { return 4 + 12*n }

// AppendVector appends EncodeVector's encoding of v to dst for a caller
// that already holds v's groups in ascending order.
func AppendVector(dst []byte, v Vector, groups []transport.RingID) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(groups)))
	for _, g := range groups {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(g))
		dst = binary.LittleEndian.AppendUint64(dst, v[g])
	}
	return dst
}

// ErrCorrupt reports an unparsable checkpoint artifact.
var ErrCorrupt = errors.New("recovery: corrupt checkpoint data")

// SplitVector returns the encoded vector at the head of buf, still
// encoded, and the remaining bytes.
func SplitVector(buf []byte) (enc, rest []byte, err error) {
	if len(buf) < 4 {
		return nil, nil, ErrCorrupt
	}
	end := EncodedVectorLen(int(binary.LittleEndian.Uint32(buf)))
	if len(buf) < end {
		return nil, nil, ErrCorrupt
	}
	return buf[:end:end], buf[end:], nil
}

// DecodeVector parses EncodeVector output and returns the remaining bytes.
func DecodeVector(buf []byte) (Vector, []byte, error) {
	enc, rest, err := SplitVector(buf)
	if err != nil {
		return nil, nil, err
	}
	v := make(Vector, (len(enc)-4)/12)
	for enc = enc[4:]; len(enc) > 0; enc = enc[12:] {
		v[transport.RingID(binary.LittleEndian.Uint32(enc))] = binary.LittleEndian.Uint64(enc[4:])
	}
	return v, rest, nil
}

// Covers reports whether have[g] >= k for every entry (g, k) of req, a
// vector as SplitVector returns it, read in place. Groups have does not
// track are ignored: a requirement on a ring its holder never subscribed
// to cannot be met by it, and need not be.
func (have Vector) Covers(req []byte) bool {
	for i := 4; i+12 <= len(req); i += 12 {
		k, ok := have[transport.RingID(binary.LittleEndian.Uint32(req[i:]))]
		if ok && k < binary.LittleEndian.Uint64(req[i+4:]) {
			return false
		}
	}
	return true
}

// Checkpoint pairs a state snapshot with the tuple identifying it.
type Checkpoint struct {
	Vector Vector
	State  []byte
}

// Encode serializes a checkpoint with integrity check.
func (c Checkpoint) Encode() []byte {
	vec := EncodeVector(c.Vector)
	buf := make([]byte, 0, len(vec)+8+len(c.State))
	buf = append(buf, vec...)
	var tmp [8]byte
	binary.LittleEndian.PutUint32(tmp[:4], uint32(len(c.State)))
	buf = append(buf, tmp[:4]...)
	buf = append(buf, c.State...)
	binary.LittleEndian.PutUint32(tmp[:4], crc32.ChecksumIEEE(buf))
	return append(buf, tmp[:4]...)
}

// DecodeCheckpoint parses Encode output.
func DecodeCheckpoint(buf []byte) (Checkpoint, error) {
	if len(buf) < 4 {
		return Checkpoint{}, ErrCorrupt
	}
	body, sumBytes := buf[:len(buf)-4], buf[len(buf)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(sumBytes) {
		return Checkpoint{}, ErrCorrupt
	}
	vec, rest, err := DecodeVector(body)
	if err != nil {
		return Checkpoint{}, err
	}
	if len(rest) < 4 {
		return Checkpoint{}, ErrCorrupt
	}
	n := int(binary.LittleEndian.Uint32(rest[:4]))
	rest = rest[4:]
	if len(rest) != n {
		return Checkpoint{}, ErrCorrupt
	}
	state := make([]byte, n)
	copy(state, rest)
	return Checkpoint{Vector: vec, State: state}, nil
}

// Store persists checkpoints. Implementations must be safe for concurrent
// use.
type Store interface {
	// Save durably stores a checkpoint (synchronously, as the paper's
	// replicas write checkpoints synchronously to allow log trimming).
	Save(Checkpoint) error
	// Latest returns the newest stored checkpoint.
	Latest() (Checkpoint, bool)
}

// MemStore is an in-memory Store for tests and simulations.
type MemStore struct {
	mu     sync.Mutex
	latest Checkpoint
	has    bool
	saves  int
}

// NewMemStore returns an empty in-memory checkpoint store.
func NewMemStore() *MemStore { return &MemStore{} }

var _ Store = (*MemStore)(nil)

// Save keeps the newest checkpoint.
func (s *MemStore) Save(c Checkpoint) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.latest = Checkpoint{Vector: c.Vector.Clone(), State: append([]byte(nil), c.State...)}
	s.has = true
	s.saves++
	return nil
}

// Latest returns the newest checkpoint.
func (s *MemStore) Latest() (Checkpoint, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.has {
		return Checkpoint{}, false
	}
	return Checkpoint{Vector: s.latest.Vector.Clone(), State: append([]byte(nil), s.latest.State...)}, true
}

// FileStore persists checkpoints as numbered files in a directory, keeping
// the most recent two (the previous one survives a torn write of the
// newest).
type FileStore struct {
	mu  sync.Mutex
	dir string
	seq int
}

// NewFileStore opens (creating if needed) a checkpoint directory and
// sweeps stale .tmp files left by a crash between the temp write and the
// rename — they are at best duplicates of an intact checkpoint and at
// worst torn writes, never the newest durable state.
func NewFileStore(dir string) (*FileStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("recovery: create checkpoint dir: %w", err)
	}
	if entries, err := os.ReadDir(dir); err == nil {
		for _, e := range entries {
			if strings.HasSuffix(e.Name(), ".tmp") {
				_ = os.Remove(filepath.Join(dir, e.Name()))
			}
		}
	}
	s := &FileStore{dir: dir}
	nums := s.listNums()
	if len(nums) > 0 {
		s.seq = nums[len(nums)-1]
	}
	return s, nil
}

var _ Store = (*FileStore)(nil)

func (s *FileStore) listNums() []int {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil
	}
	var nums []int
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "checkpoint-") || !strings.HasSuffix(name, ".ckpt") {
			continue
		}
		n, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, "checkpoint-"), ".ckpt"))
		if err == nil {
			nums = append(nums, n)
		}
	}
	sort.Ints(nums)
	return nums
}

func (s *FileStore) path(n int) string {
	return filepath.Join(s.dir, fmt.Sprintf("checkpoint-%09d.ckpt", n))
}

// Save writes the checkpoint synchronously (write + fsync + rename +
// directory fsync) and prunes all but the two newest files. The directory
// fsync matters: without it a crash after Save returns can lose the
// rename, and the trim protocol may already have discarded consensus
// instances on the strength of this "durable" checkpoint.
func (s *FileStore) Save(c Checkpoint) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	tmp := s.path(s.seq) + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(c.Encode()); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, s.path(s.seq)); err != nil {
		return err
	}
	if err := syncDir(s.dir); err != nil {
		return err
	}
	nums := s.listNums()
	for len(nums) > 2 {
		_ = os.Remove(s.path(nums[0]))
		nums = nums[1:]
	}
	return nil
}

// syncDir fsyncs a directory so a just-renamed file's directory entry is
// durable. Windows cannot flush directory handles (and NTFS metadata
// updates do not need it), so it is a no-op there.
func syncDir(dir string) error {
	if runtime.GOOS == "windows" {
		return nil
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer func() { _ = d.Close() }()
	return d.Sync()
}

// Latest loads the newest intact checkpoint, falling back to the previous
// one if the newest is corrupt.
func (s *FileStore) Latest() (Checkpoint, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	nums := s.listNums()
	for i := len(nums) - 1; i >= 0; i-- {
		buf, err := os.ReadFile(s.path(nums[i]))
		if err != nil {
			continue
		}
		c, err := DecodeCheckpoint(buf)
		if err != nil {
			continue
		}
		return c, true
	}
	return Checkpoint{}, false
}
