package live

import (
	"bufio"
	"net"
	"testing"
	"time"

	"fortyconsensus/internal/kvstore"
	"fortyconsensus/internal/raft"
	"fortyconsensus/internal/snapshot"
	"fortyconsensus/internal/types"
)

// badInstall is a raft module that reports one installed snapshot whose
// application state was cut short in transit.
type badInstall struct {
	*raft.Node
	snap *snapshot.Snapshot
}

func (m *badInstall) TakeInstalledSnapshot() *snapshot.Snapshot {
	s := m.snap
	m.snap = nil
	return s
}

// TestRestoreFailureIsCountedAndRefusesClients: a group whose replica
// cannot restore an installed snapshot can never apply again (the
// module's log starts past the snapshot). It must say so — one
// restore_failed in the metrics, the flag in its status — and turn
// client requests away instead of accepting writes it will never
// answer. A write it took as leader before the install failed is
// answered too, by the turn that finds the replica dead.
func TestRestoreFailureIsCountedAndRefusesClients(t *testing.T) {
	for _, serveFirst := range []bool{false, true} {
		name := "install then serve"
		if serveFirst {
			name = "serve then install"
		}
		t.Run(name, func(t *testing.T) { checkRestoreFailure(t, serveFirst) })
	}
}

func checkRestoreFailure(t *testing.T, serveFirst bool) {
	ln, addr, err := Listen()
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewServerOn(ln, ServerConfig{Self: 0, Addrs: map[types.NodeID]string{0: addr}, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	bad := &snapshot.Snapshot{LastIndex: 10, State: []byte{0, 0, 0, 0, 0, 0, 0, 11, 0}}
	mod := &badInstall{Node: raft.New(0, raft.Config{Peers: []types.NodeID{0}})}
	g := newSMRGroup[raft.Message](s, 0, mod, RaftCodec{}, raft.Dest)
	defer g.close()

	c1, c2 := net.Pipe()
	defer c2.Close()
	cc := newClientConn(c1, bufio.NewReader(c1))
	defer cc.Close()
	// put sends one write and wants it answered StatusUnavailable.
	put := func(reqID uint64) {
		g.serve(cc, []clientOp{{Request{ReqID: reqID, Client: 1, SeqNo: reqID, Op: kvstore.Put("k", []byte("v")).Encode()}, false}}, false)
		select {
		case resp := <-cc.out:
			if resp.ReqID != reqID || resp.Status != StatusUnavailable {
				t.Fatalf("write %d to a wedged group answered %+v, want StatusUnavailable", reqID, resp)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("write %d to a wedged group was never answered", reqID)
		}
	}

	if serveFirst {
		leads := false
		for i := 0; i < 100 && !leads; i++ {
			g.node.CallWait(func() { mod.Tick(); leads = mod.IsLeader() })
		}
		if !leads {
			t.Fatal("the one-node group never led")
		}
		mod.snap = bad // no turn runs: the write's own turn pumps it
		put(4)
	} else {
		mod.snap = bad
		for i := 0; i < 3; i++ {
			g.node.CallWait(func() {}) // a turn: the after hook pumps the replica
		}
	}
	if got := s.met.snapshot(s.tr).RestoreFailed; got != 1 {
		t.Fatalf("restore_failed = %d after one failed restore, want 1", got)
	}
	st, ok := g.status()
	if !ok || !st.RestoreFailed || st.Installs != 0 || st.Waiting != 0 {
		t.Fatalf("status after failed restore: %+v", st)
	}
	put(5)
}
