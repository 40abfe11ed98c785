package zyzzyva

import (
	"fortyconsensus/internal/chaincrypto"
	"fortyconsensus/internal/det"
	"fortyconsensus/internal/quorum"
	"fortyconsensus/internal/types"
)

// Path records which commit path completed a request.
type Path uint8

const (
	PathNone Path = iota
	PathFast      // 3f+1 matching speculative responses
	PathCert      // 2f+1 responses + commit certificate round
)

func (p Path) String() string {
	switch p {
	case PathNone:
		return "none"
	case PathFast:
		return "fast"
	case PathCert:
		return "certified"
	}
	return "none"
}

// Completion describes one finished client request.
type Completion struct {
	Seq     types.Seq
	Path    Path
	Latency int // ticks from send to completion
}

// Client is the Zyzzyva client — an active protocol participant that
// performs commitment. It runs as a node on the same fabric.
type Client struct {
	types.Outbox[Message]
	id  types.NodeID
	cfg Config
	now int

	req       types.Value // outstanding request (nil when idle)
	sentAt    int
	flooded   bool
	responses map[string]map[types.NodeID]Message // match-key → responders
	certSent  bool
	certSeq   types.Seq
	localOK   map[types.NodeID]bool

	done []Completion
}

// NewClient builds a client with the given node id (outside 0..N-1).
func NewClient(id types.NodeID, cfg Config) *Client {
	return &Client{id: id, cfg: cfg.withDefaults()}
}

// Submit sends op through the cluster. The first byte of the request
// encodes the client's node id so replicas can address responses.
func (c *Client) Submit(op types.Value) {
	body := append(types.Value{byte(c.id)}, op...)
	c.req = body
	c.sentAt = c.now
	c.flooded = false
	c.certSent = false
	c.responses = make(map[string]map[types.NodeID]Message)
	c.localOK = make(map[types.NodeID]bool)
	c.send(Message{Kind: MsgRequest, To: 0, Req: body.Clone()}) // view-0 primary
}

// Completions drains finished requests.
func (c *Client) Completions() []Completion {
	d := c.done
	c.done = nil
	return d
}

func (c *Client) send(m Message) {
	m.From = c.id
	c.Post(m)
}

func matchKey(m Message) string {
	d := chaincrypto.Hash(chaincrypto.HashUint64(uint64(m.Seq)), m.History[:], m.Result)
	return d.String()
}

// Step consumes responses.
func (c *Client) Step(m Message) {
	if c.req == nil {
		return
	}
	switch m.Kind {
	case MsgRequest, MsgOrderReq, MsgCommitCert, MsgViewChange, MsgNewView, MsgFillHole: // replica-bound
	case MsgSpecResponse:
		if !m.Req.Equal(c.req) {
			return
		}
		k := matchKey(m)
		set, ok := c.responses[k]
		if !ok {
			set = make(map[types.NodeID]Message)
			c.responses[k] = set
		}
		set[m.From] = m
		if len(set) == c.cfg.n() { // 3f+1 matching: Case 1
			c.complete(m.Seq, PathFast)
		}
	case MsgLocalCommit:
		if !c.certSent || m.Seq != c.certSeq {
			return
		}
		c.localOK[m.From] = true
		if len(c.localOK) >= (quorum.Byzantine{F: c.cfg.F}).Threshold() {
			c.complete(m.Seq, PathCert)
		}
	}
}

func (c *Client) complete(seq types.Seq, p Path) {
	c.done = append(c.done, Completion{Seq: seq, Path: p, Latency: c.now - c.sentAt})
	c.req = nil
}

// Tick drives the client's two timeouts: the fast-path wait and the
// overall retry.
func (c *Client) Tick() {
	c.now++
	if c.req == nil {
		return
	}
	elapsed := c.now - c.sentAt
	// Fall back to the committed path once the fast window closes.
	if !c.certSent && elapsed >= c.cfg.ClientFastWait {
		for _, k := range det.SortedKeys(c.responses) {
			set := c.responses[k]
			if len(set) >= (quorum.Byzantine{F: c.cfg.F}).Threshold() {
				c.certSent = true
				ids := det.SortedKeys(set)
				any := set[ids[0]]
				c.certSeq = any.Seq
				for i := 0; i < c.cfg.n(); i++ {
					c.send(Message{
						Kind: MsgCommitCert, To: types.NodeID(i),
						Seq: any.Seq, History: any.History,
					})
				}
				break
			}
		}
	}
	// Overall retry: flood the request so replicas arm view-change
	// timers against a faulty primary.
	if elapsed >= clientRetry && !c.flooded {
		c.flooded = true
		for i := 0; i < c.cfg.n(); i++ {
			c.send(Message{Kind: MsgRequest, To: types.NodeID(i), Req: c.req.Clone()})
		}
		c.sentAt = c.now // re-arm
		c.certSent = false
		c.responses = make(map[string]map[types.NodeID]Message)
		c.localOK = make(map[types.NodeID]bool)
	} else if elapsed >= clientRetry {
		c.flooded = false // allow another flood next window
	}
}
