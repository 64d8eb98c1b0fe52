package rmp

// Deliver hands payload to the daemon as if it had arrived from its
// redirector.
func (d *HostDaemon) Deliver(payload []byte) { d.onMessage(d.redirector, payload) }
