package core

import "hydranet/internal/inet"

// Strikes returns the failure estimator's count on the client's connection
// and whether the tail-silence rule is counting there (ftConn.OnRTO).
func (p *ReplicatedPort) Strikes(client inet.Endpoint) (count int, tailCounting bool) {
	fc := p.conns[client.Key()]
	return fc.retransmits, fc.tailCounting()
}
