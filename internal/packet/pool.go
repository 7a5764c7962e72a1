package packet

// Pool is a free list of packets. The dataplane benchmarks push
// millions of packets per second; allocating each packet on the heap
// would make the garbage collector the bottleneck (the repro
// environment has no unikernel dataplane, so this is the Go
// equivalent of ClickOS's packet pools). Pool is not safe for
// concurrent use: each dataplane core owns one.
type Pool struct {
	free []*Packet
	// Stats.
	allocs, gets, puts uint64
}

// NewPool returns a pool pre-populated with n packets whose payload
// buffers have the given capacity.
func NewPool(n, payloadCap int) *Pool {
	p := &Pool{free: make([]*Packet, 0, n)}
	for i := 0; i < n; i++ {
		pk := &Packet{Payload: make([]byte, 0, payloadCap), pooled: true}
		p.free = append(p.free, pk)
	}
	return p
}

// Get returns a reset packet, allocating if the pool is empty.
func (p *Pool) Get() *Packet {
	p.gets++
	if n := len(p.free); n > 0 {
		pk := p.free[n-1]
		p.free = p.free[:n-1]
		pk.Reset()
		return pk
	}
	p.allocs++
	return &Packet{pooled: true}
}

// Put returns a packet to the pool. Packets not obtained from a pool
// (e.g. Clone results) are dropped for the GC.
func (p *Pool) Put(pk *Packet) {
	if pk == nil || !pk.pooled {
		return
	}
	p.puts++
	p.free = append(p.free, pk)
}

// Stats reports pool activity: total Gets, Puts and packets allocated
// because the free list was empty.
func (p *Pool) Stats() (gets, puts, allocs uint64) {
	return p.gets, p.puts, p.allocs
}
