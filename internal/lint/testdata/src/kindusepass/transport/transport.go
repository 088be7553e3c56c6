// Package transport is a fixture double in which every kind has a sender
// and a handler outside tests.
package transport

// Kind tags a message.
type Kind byte

// The fixture's kinds; 3 is retired and reserved.
const (
	KindRequest Kind = iota + 1
	KindReply
	_ // 3: retired
	KindPing
)

// names is a name table: its keys neither send nor handle.
var names = map[Kind]string{KindRequest: "request", KindReply: "reply", KindPing: "ping"}

// Message is a minimal protocol message.
type Message struct{ Kind Kind }

// send transmits a message of the given kind.
func send(k Kind) Message { return Message{Kind: k} }

// Serve answers a request, sending through a call argument.
func Serve(m Message) Message {
	switch m.Kind {
	case KindRequest:
		return send(KindReply)
	case KindReply:
		return Message{}
	default:
		return send(KindPing)
	}
}

// IsPing handles KindPing by comparison.
func IsPing(m Message) bool { return m.Kind == KindPing && names[m.Kind] != "" }

// Ask sends a request.
func Ask() Message { return Message{Kind: KindRequest} }
