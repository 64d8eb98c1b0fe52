package rmp

import "hydranet/internal/core"

// Deliver hands payload to the daemon as if it had arrived from its
// redirector.
func (d *HostDaemon) Deliver(payload []byte) { d.onMessage(d.redirector, payload) }

// Probe runs the failure-identification procedure for svc as a SUSPECT
// report would.
func (d *RedirectorDaemon) Probe(svc core.ServiceID) { d.suspect(svc) }
