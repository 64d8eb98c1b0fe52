package core

import (
	"hydranet/internal/inet"
	"hydranet/internal/tcp"
)

// Strikes returns the failure estimator's count on the client's connection
// and whether the tail-silence rule is counting there (ftConn.OnRTO).
func (p *ReplicatedPort) Strikes(client inet.Endpoint) (count int, tailCounting bool) {
	fc := p.find(client.Key())
	return fc.retransmits, fc.tailCounting()
}

// Record returns the record kept for the client's connection: the connection
// it embeds (nil if there is no record), whether the SYN has arrived, and the
// deposit and send limits the successor reported (ok false before any).
func (p *ReplicatedPort) Record(client inet.Endpoint) (conn *tcp.Conn, adopted bool, deposit, send tcp.Seq, ok bool) {
	fc := p.find(client.Key())
	if fc == nil {
		return nil, false, 0, 0, false
	}
	return &fc.conn, fc.adopted, fc.depositLimit, fc.sendLimit, fc.haveLimits
}

// Adopt is what the listener's ConnSetup does for a SYN from client.
func (p *ReplicatedPort) Adopt(client inet.Endpoint) (*tcp.Conn, tcp.ConnHooks) {
	return (*portSetup)(p).SetupConn(client)
}
