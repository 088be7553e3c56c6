package dlog

import "amcast/internal/transport"

// Result is a decoded reply. Positions maps each log the executing
// server hosts to the assigned append position.
type Result struct {
	Status    Status
	Positions map[LogID]uint64
	Value     []byte
}

// decodeOp parses an encoded operation into an Op of its own, except that
// Value still aliases buf.
func decodeOp(buf []byte) (Op, error) {
	v, ok := parseOp(buf)
	if !ok {
		return Op{}, transport.ErrShortMessage
	}
	o := Op{Kind: v.Kind, Log: v.Log, Pos: v.Pos, Value: v.Value}
	for i := 0; i < len(v.logs)/4; i++ {
		o.Logs = append(o.Logs, v.logAt(i))
	}
	return o, nil
}

// encodeResult serializes a result the way a replica's reply does:
// positions in ascending LogID order.
func encodeResult(r Result) []byte {
	var few [8]logPos
	ps := positions(few[:0])
	for l, pos := range r.Positions {
		ps = ps.with(l, pos)
	}
	return appendResult(make([]byte, 0, resultLen(ps, r.Value)), r.Status, ps, r.Value)
}

// decodeResult parses an encoded result into a Result of its own: Value
// is a copy.
func decodeResult(buf []byte) (Result, error) {
	v, err := parseResult(buf)
	if err != nil {
		return Result{}, err
	}
	r := Result{Status: v.Status}
	if n := v.numPositions(); n > 0 {
		r.Positions = make(map[LogID]uint64, n)
		for i := 0; i < n; i++ {
			l, pos := v.positionAt(i)
			r.Positions[l] = pos
		}
	}
	if len(v.Value) > 0 {
		r.Value = append([]byte(nil), v.Value...)
	}
	return r, nil
}

// execute applies one encoded operation as a batch of one.
func execute(sm *SM, g transport.RingID, raw []byte) []byte {
	return sm.ExecuteBatch([]transport.RingID{g}, [][]byte{raw})[0]
}

// snapshot serializes every hosted log.
func snapshot(sm *SM) []byte { return sm.CaptureSnapshot().Serialize() }
