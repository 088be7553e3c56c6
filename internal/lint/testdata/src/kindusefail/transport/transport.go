// Package transport is a fixture double whose kinds the kindswitch
// sender/handler rule must flag.
package transport

// Kind tags a message.
type Kind byte

// The fixture's kinds.
const (
	KindSent    Kind = iota + 1 // want `nothing outside tests handles KindSent`
	KindHandled                 // want `nothing outside tests sends KindHandled`
	KindDead                    // want `nothing outside tests sends or handles KindDead`
	KindBoth
)

// names is a name table: its keys neither send nor handle.
var names = map[Kind]string{KindSent: "sent", KindHandled: "handled", KindDead: "dead", KindBoth: "both"}

// Message is a minimal protocol message.
type Message struct{ Kind Kind }

// Send builds a message of a kind nothing handles.
func Send() Message { return Message{Kind: KindSent} }

// Reply sends KindBoth by assignment.
func Reply() Message {
	var m Message
	m.Kind = KindBoth
	return m
}

// Handle dispatches a message.
func Handle(m Message) string {
	switch m.Kind {
	case KindHandled, KindBoth:
		return names[m.Kind]
	default:
		return ""
	}
}
