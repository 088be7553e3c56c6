package dlog

import (
	"testing"
	"time"

	"amcast/internal/coord"
	"amcast/internal/core"
	"amcast/internal/netem"
	"amcast/internal/smr"
	"amcast/internal/transport"
)

// TestAppendRejectsReplyForAnotherLog: an OK reply that names no position
// for the log appended to is an error, not position 0, which is a valid
// position.
func TestAppendRejectsReplyForAnotherLog(t *testing.T) {
	net := transport.NewNetwork(nil)
	defer net.Close()
	svc := coord.NewService()
	const replica, client = transport.ProcessID(1), transport.ProcessID(2)
	all := coord.RoleProposer | coord.RoleAcceptor | coord.RoleLearner
	if err := svc.CreateRing(1, []coord.Member{{ID: replica, Roles: all}}); err != nil {
		t.Fatal(err)
	}

	// A stand-in replica of ring 1 answers every command with an OK reply
	// for log 2.
	reply := encodeResult(Result{Status: StatusOK, Positions: map[LogID]uint64{2: 7}})
	tr := net.Attach(replica, netem.SiteLocal)
	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		for {
			select {
			case <-stop:
				return
			case m := <-tr.Recv():
				if cmd, err := smr.DecodeCommand(m.Value.Data); err == nil && m.Kind == transport.KindProposal {
					_ = tr.Send(cmd.Client, transport.Message{Kind: transport.KindResponse, Ring: m.Ring, Count: uint32(m.Ring), Seq: cmd.Seq, Payload: reply})
				}
			}
		}
	}()
	defer func() { close(stop); <-stopped }()

	ctr := net.Attach(client, netem.SiteLocal)
	router := transport.NewRouter(ctr)
	node, err := core.New(core.Config{Self: client, Router: router, Coord: svc})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Stop()
	cl, err := smr.NewClient(smr.ClientConfig{Self: client, Node: node, Transport: ctr, Service: router.Service(), Coord: svc})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	dc := NewClient(cl, 0)
	dc.Timeout = 5 * time.Second

	if pos, err := dc.Append(1, []byte("v")); err == nil {
		t.Fatalf("Append to log 1 took a reply for log 2 as position %d", pos)
	}
}
