// Package smr provides state-machine replication on top of Multi-Ring
// Paxos (Section 6: both MRP-Store and dLog "use state-machine replication
// implemented with Multi-Ring Paxos").
//
// Clients wrap operations in commands (client id, sequence number,
// opaque operation), multicast them to the group owning the data, and wait
// for the first replica response (Section 7.2). Replicas deliver commands
// in merged order, execute them against a StateMachine, reply directly to
// the client, and periodically checkpoint — integrating with the trim
// protocol of Section 5.2.
package smr

import (
	"encoding/binary"

	"amcast/internal/transport"
)

// Command is a client request replicated through atomic multicast.
type Command struct {
	// Client is the submitting process.
	Client transport.ProcessID
	// Seq is the client-local sequence number, used for response
	// matching and duplicate suppression.
	Seq uint64
	// Op is the service-specific operation payload.
	Op []byte
}

// Op is an operation a client encodes straight into the one buffer of its
// request: Len bytes, which Append appends to dst. The client calls Append
// once, before the call returns, and keeps neither it nor what it captures,
// so a method value passed here stays on the caller's stack.
type Op struct {
	Len    int
	Append func(dst []byte) []byte
}

// commandHeaderLen is the size of a command's client and sequence number.
const commandHeaderLen = 12

func appendCommandHeader(dst []byte, client transport.ProcessID, seq uint64) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(client))
	return binary.LittleEndian.AppendUint64(dst, seq)
}

// Encode serializes the command.
func (c Command) Encode() []byte {
	buf := appendCommandHeader(make([]byte, 0, commandHeaderLen+len(c.Op)), c.Client, c.Seq)
	return append(buf, c.Op...)
}

// DecodeCommand parses Encode output. The Op slice aliases buf.
func DecodeCommand(buf []byte) (Command, error) {
	if len(buf) < commandHeaderLen {
		return Command{}, transport.ErrShortMessage
	}
	return Command{
		Client: transport.ProcessID(binary.LittleEndian.Uint32(buf[:4])),
		Seq:    binary.LittleEndian.Uint64(buf[4:12]),
		Op:     buf[commandHeaderLen:],
	}, nil
}
