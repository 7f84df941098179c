package transport

// SourceIndexLen reports how many peers the endpoint's receive-side index
// (socket address → Addr) holds, for tests that pin it to the peer cache's
// bound.
func (e *UDPEndpoint) SourceIndexLen() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return len(e.sources)
}
