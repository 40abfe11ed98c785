package live

import (
	"bufio"
	"net"
	"testing"

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
// answer.
func TestRestoreFailureIsCountedAndRefusesClients(t *testing.T) {
	ln, addr, err := Listen()
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewServerOn(ln, ServerConfig{Self: 0, Addrs: map[types.NodeID]string{0: addr}, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	mod := &badInstall{
		Node: raft.New(0, raft.Config{Peers: []types.NodeID{0}}),
		snap: &snapshot.Snapshot{LastIndex: 10, State: []byte{0, 0, 0, 0, 0, 0, 0, 11, 0}},
	}
	g := newSMRGroup[raft.Message](s, 0, mod, RaftCodec{}, raft.Dest)
	defer g.close()

	for i := 0; i < 3; i++ {
		g.node.CallWait(func() {}) // a turn: the after hook pumps the replica
	}
	if got := s.met.snapshot(s.tr).RestoreFailed; got != 1 {
		t.Fatalf("restore_failed = %d after one failed restore, want 1", got)
	}
	st, ok := g.status()
	if !ok || !st.RestoreFailed || st.Installs != 0 {
		t.Fatalf("status after failed restore: %+v", st)
	}

	c1, c2 := net.Pipe()
	defer c2.Close()
	cc := newClientConn(c1, bufio.NewReader(c1))
	defer cc.Close()
	g.serve(cc, []clientOp{{Request{ReqID: 5, Client: 1, SeqNo: 1, Op: kvstore.Put("k", []byte("v")).Encode()}, false}})
	resp, err := decodeResponse(<-cc.out)
	if err != nil || resp.ReqID != 5 || resp.Status != StatusUnavailable {
		t.Fatalf("submit to a wedged group answered %+v (%v), want StatusUnavailable", resp, err)
	}
}
