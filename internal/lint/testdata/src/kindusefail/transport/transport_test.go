package transport

import "testing"

// TestKinds sends KindHandled and handles KindSent; test uses do not
// count.
func TestKinds(t *testing.T) {
	if m := (Message{Kind: KindHandled}); Handle(m) != "handled" || Send().Kind != KindSent {
		t.Fatal("unexpected")
	}
}
