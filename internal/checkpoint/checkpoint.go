// Package checkpoint implements CrystalBall's periodic exchange of
// neighborhood checkpoints (paper §2).
//
// Each node runs a Manager. On every Tick the manager opens a new epoch and
// requests an epoch-tagged checkpoint from each neighbor; a neighbor's
// manager answers with a clone of its service state captured at receipt.
// The manager keeps nothing of what comes back: the runtime hands every
// Response to the node's state model (model.StateModel), the node's one
// checkpoint store, which retains the freshest checkpoint per peer and
// assembles the neighborhood snapshot from them.
//
// In the paper checkpoints travel over the same network as the protocol;
// here the Manager is transport-agnostic — the runtime wires its Send
// callback to the simulated network, so checkpoint traffic pays latency and
// bandwidth like any other message.
package checkpoint

import (
	"time"

	"crystalchoice/internal/sm"
)

// NodeID aliases sm.NodeID.
type NodeID = sm.NodeID

// Message kinds used by the checkpoint protocol. The runtime routes kinds
// with the "cb.ckpt." prefix to the Manager instead of the service.
const (
	KindRequest  = "cb.ckpt.req"
	KindResponse = "cb.ckpt.resp"
)

// Modeled wire sizes in bytes. A response is a fixed 512 whatever the
// state it carries.
const (
	requestSize  = 16
	responseSize = 512
)

// Request asks a neighbor for its state under the controller's epoch.
type Request struct {
	Epoch uint64
}

// DigestBody folds the body into a state digest.
func (r Request) DigestBody(h *sm.Hasher) {
	h.WriteString("ckreq").WriteUint(r.Epoch)
}

// Response carries a state clone back to the controller.
type Response struct {
	Epoch uint64
	State sm.Service // a clone, owned by the receiver once delivered
	At    time.Duration
}

// DigestBody folds the body into a state digest. The carried clone
// contributes its own service digest, so two responses with equal epochs
// but divergent states hash apart.
func (r Response) DigestBody(h *sm.Hasher) {
	h.WriteString("ckresp").WriteUint(r.Epoch).WriteInt(int64(r.At))
	if r.State != nil {
		h.WriteUint(r.State.Digest())
	}
}

// SendFunc transmits a checkpoint-protocol message.
type SendFunc func(dst NodeID, kind string, body any, size int)

// Manager drives checkpoint exchange for one node.
type Manager struct {
	id NodeID
	// Neighbors enumerates the current checkpoint neighborhood (typically
	// O(log n): parent + children + view sample).
	Neighbors func() []NodeID
	// SelfState returns a clone of the local service state.
	SelfState func() sm.Service
	// Send transmits protocol messages.
	Send SendFunc
	// Now returns virtual time.
	Now func() time.Duration

	epoch uint64
}

// NewManager returns a Manager for node id. The caller must set the
// Neighbors, SelfState, Send and Now callbacks before use.
func NewManager(id NodeID) *Manager { return &Manager{id: id} }

// ID returns the owning node.
func (m *Manager) ID() NodeID { return m.id }

// Epoch returns the most recently opened epoch.
func (m *Manager) Epoch() uint64 { return m.epoch }

// Tick opens a new epoch and requests checkpoints from all neighbors.
func (m *Manager) Tick() {
	neighbors := m.Neighbors()
	if len(neighbors) == 0 {
		return
	}
	m.epoch++
	for _, nb := range neighbors {
		if nb != m.id {
			m.Send(nb, KindRequest, Request{Epoch: m.epoch}, requestSize)
		}
	}
}

// HandleMessage answers a checkpoint request, reporting whether it consumed
// the message. A malformed request is consumed unanswered; every other
// kind, responses included, is left to the caller (false).
func (m *Manager) HandleMessage(src NodeID, kind string, body any) bool {
	if kind != KindRequest {
		return false
	}
	if req, ok := body.(Request); ok {
		m.Send(src, KindResponse, Response{Epoch: req.Epoch, State: m.SelfState(), At: m.Now()}, responseSize)
	}
	return true
}
