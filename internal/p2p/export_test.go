package p2p

// PendingRequests reports how many exchanges are still outstanding: what
// the external tests check after a timeout or a failed send.
func (p *Peer) PendingRequests() int {
	p.pending.mu.Lock()
	defer p.pending.mu.Unlock()
	return len(p.pending.slots) - len(p.pending.free)
}
