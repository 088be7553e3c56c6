package store

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"

	"amcast/internal/coord"
	"amcast/internal/transport"
)

// SchemaKind selects hash or range partitioning (applications decide,
// Section 6.1; clients must know the partitioning scheme).
type SchemaKind uint8

const (
	// HashPartitioned assigns keys to partitions by key hash.
	HashPartitioned SchemaKind = iota + 1
	// RangePartitioned assigns keys by sorted key ranges.
	RangePartitioned
)

// SchemaMetaKey is where the schema lives in the coordination service.
const SchemaMetaKey = "mrpstore/schema"

// Partition describes one shard.
type Partition struct {
	// Group is the multicast group (ring) replicating this partition.
	Group transport.RingID
	// Low is the inclusive lower key bound (range partitioning only;
	// the first partition's Low is the empty string).
	Low string
}

// Schema is the partitioning scheme. Partitions are ordered: by index for
// hash partitioning, by Low for range partitioning.
type Schema struct {
	Kind SchemaKind
	// Version counts schema changes: online reconfiguration publishes
	// Version+1 when a partition split commits, and clients reject
	// refreshes that would move them backwards.
	Version uint64
	// GlobalGroup, if nonzero, is a ring all replicas subscribe to;
	// multi-partition operations are multicast to it so they are
	// ordered against everything else. Zero means independent rings
	// (Figure 4's "MRP-Store (indep. rings)" configuration).
	GlobalGroup transport.RingID
	Partitions  []Partition
}

// Validate checks structural invariants.
func (s Schema) Validate() error {
	if len(s.Partitions) == 0 {
		return fmt.Errorf("store: schema needs at least one partition")
	}
	seen := make(map[transport.RingID]bool)
	for _, p := range s.Partitions {
		if seen[p.Group] {
			return fmt.Errorf("store: duplicate group %d in schema", p.Group)
		}
		seen[p.Group] = true
		if p.Group == s.GlobalGroup {
			return fmt.Errorf("store: partition group %d collides with global group", p.Group)
		}
	}
	if s.Kind == RangePartitioned {
		for i := 1; i < len(s.Partitions); i++ {
			if s.Partitions[i].Low <= s.Partitions[i-1].Low {
				return fmt.Errorf("store: range partitions not sorted at %d", i)
			}
		}
		if s.Partitions[0].Low != "" {
			return fmt.Errorf("store: first range partition must start at the empty key")
		}
	}
	return nil
}

// PartitionOf returns the group owning key.
func (s Schema) PartitionOf(key string) transport.RingID {
	switch s.Kind {
	case RangePartitioned:
		idx := sort.Search(len(s.Partitions), func(i int) bool {
			return s.Partitions[i].Low > key
		}) - 1
		if idx < 0 {
			idx = 0
		}
		return s.Partitions[idx].Group
	default:
		h := fnv.New32a()
		_, _ = h.Write([]byte(key))
		return s.Partitions[int(h.Sum32())%len(s.Partitions)].Group
	}
}

// GroupsForScan returns the groups a scan over [lo, hi] must reach: the
// covering range partitions if range-partitioned, or every partition if
// hash-partitioned (Section 6.1).
func (s Schema) GroupsForScan(lo, hi string) []transport.RingID {
	if s.Kind == RangePartitioned {
		var out []transport.RingID
		for i, p := range s.Partitions {
			// Partition i covers [p.Low, next.Low).
			if p.Low > hi && p.Low != "" {
				break
			}
			if i+1 < len(s.Partitions) && s.Partitions[i+1].Low <= lo {
				continue
			}
			out = append(out, p.Group)
		}
		return out
	}
	out := make([]transport.RingID, len(s.Partitions))
	for i, p := range s.Partitions {
		out[i] = p.Group
	}
	return out
}

// Groups returns every partition group in order.
func (s Schema) Groups() []transport.RingID {
	out := make([]transport.RingID, len(s.Partitions))
	for i, p := range s.Partitions {
		out[i] = p.Group
	}
	return out
}

// Encode serializes the schema for the coordination service.
func (s Schema) Encode() []byte {
	var buf []byte
	buf = append(buf, byte(s.Kind))
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:8], s.Version)
	buf = append(buf, tmp[:8]...)
	binary.LittleEndian.PutUint32(tmp[:4], uint32(s.GlobalGroup))
	buf = append(buf, tmp[:4]...)
	binary.LittleEndian.PutUint32(tmp[:4], uint32(len(s.Partitions)))
	buf = append(buf, tmp[:4]...)
	for _, p := range s.Partitions {
		binary.LittleEndian.PutUint32(tmp[:4], uint32(p.Group))
		buf = append(buf, tmp[:4]...)
		buf = appendString(buf, p.Low)
	}
	return buf
}

// DecodeSchema parses Encode output.
func DecodeSchema(buf []byte) (Schema, error) {
	var s Schema
	if len(buf) < 17 {
		return s, transport.ErrShortMessage
	}
	s.Kind = SchemaKind(buf[0])
	s.Version = binary.LittleEndian.Uint64(buf[1:9])
	s.GlobalGroup = transport.RingID(binary.LittleEndian.Uint32(buf[9:13]))
	n := int(binary.LittleEndian.Uint32(buf[13:17]))
	buf = buf[17:]
	for i := 0; i < n; i++ {
		if len(buf) < 4 {
			return s, transport.ErrShortMessage
		}
		var p Partition
		p.Group = transport.RingID(binary.LittleEndian.Uint32(buf[:4]))
		buf = buf[4:]
		low, rest, ok := readString(buf)
		if !ok {
			return s, transport.ErrShortMessage
		}
		p.Low, buf = string(low), rest
		s.Partitions = append(s.Partitions, p)
	}
	return s, nil
}

// PublishSchema stores the schema in the coordination service.
func PublishSchema(svc *coord.Service, s Schema) error {
	if err := s.Validate(); err != nil {
		return err
	}
	svc.PutMeta(SchemaMetaKey, s.Encode())
	return nil
}

// LoadSchema fetches the schema from the coordination service.
func LoadSchema(svc *coord.Service) (Schema, error) {
	raw, ok := svc.GetMeta(SchemaMetaKey)
	if !ok {
		return Schema{}, fmt.Errorf("store: no schema published")
	}
	return DecodeSchema(raw)
}

// RangeOf returns the key range [lo, hi) a partition group owns under a
// range-partitioned schema; hi == "" means unbounded above. ok is false
// when the schema is not range-partitioned or the group is absent.
func (s Schema) RangeOf(group transport.RingID) (lo, hi string, ok bool) {
	if s.Kind != RangePartitioned {
		return "", "", false
	}
	for i, p := range s.Partitions {
		if p.Group != group {
			continue
		}
		hi := ""
		if i+1 < len(s.Partitions) {
			hi = s.Partitions[i+1].Low
		}
		return p.Low, hi, true
	}
	return "", "", false
}

// SplitRange derives the post-split schema: keys >= key move from the
// partition owning them to newGroup, and the version increments. The
// receiver is unchanged.
func (s Schema) SplitRange(newGroup transport.RingID, key string) (Schema, error) {
	if s.Kind != RangePartitioned {
		return Schema{}, fmt.Errorf("store: split requires a range-partitioned schema")
	}
	if key == "" {
		return Schema{}, fmt.Errorf("store: split key must be nonempty")
	}
	out := s
	out.Partitions = append([]Partition(nil), s.Partitions...)
	idx := sort.Search(len(out.Partitions), func(i int) bool {
		return out.Partitions[i].Low > key
	})
	// idx is the insertion point; the owning partition sits before it.
	if idx > 0 && out.Partitions[idx-1].Low == key {
		return Schema{}, fmt.Errorf("store: split key %q is already a partition boundary", key)
	}
	out.Partitions = append(out.Partitions, Partition{})
	copy(out.Partitions[idx+1:], out.Partitions[idx:])
	out.Partitions[idx] = Partition{Group: newGroup, Low: key}
	out.Version = s.Version + 1
	if err := out.Validate(); err != nil {
		return Schema{}, err
	}
	return out, nil
}

// RangeSchema builds an l-way range schema splitting the printable-ASCII
// key space evenly — convenient for examples and benchmarks.
func RangeSchema(groups []transport.RingID, global transport.RingID) Schema {
	s := Schema{Kind: RangePartitioned, GlobalGroup: global, Version: 1}
	for i, g := range groups {
		low := ""
		if i > 0 {
			// Boundaries spread across ' '..'~'.
			c := byte(' ') + byte(i*95/len(groups))
			low = string([]byte{c})
		}
		s.Partitions = append(s.Partitions, Partition{Group: g, Low: low})
	}
	return s
}

// HashSchema builds an l-way hash schema.
func HashSchema(groups []transport.RingID, global transport.RingID) Schema {
	s := Schema{Kind: HashPartitioned, GlobalGroup: global, Version: 1}
	for _, g := range groups {
		s.Partitions = append(s.Partitions, Partition{Group: g})
	}
	return s
}
