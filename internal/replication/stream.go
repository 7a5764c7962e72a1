// The replication wire protocol (documented in docs/FORMATS.md §10).
//
// The leader dials each standby and sends one JSON "hello" line, the
// standby replies with one JSON line, and the stream switches to
// tagged binary messages:
//
//	'S' + uint32 LE length + snapshot JSON   full-state resync
//	'F' + journal frame (verbatim)           one replicated record
//	'H' + uint64 LE leader seq               heartbeat
//
// The standby acknowledges applied sequence numbers as bare uint64 LE
// values on the same connection. Journal frames are re-used exactly as
// written to the leader's journal file — same length prefix, same
// CRC, same JSON payload — so the standby can ingest them without
// re-encoding and both journal files stay byte-identical.
package replication

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"github.com/in-net/innet/internal/controller"
	"github.com/in-net/innet/internal/journal"
)

// handshakeTimeout bounds the hello exchange on both sides.
const handshakeTimeout = 5 * time.Second

// maxSnapshotBytes bounds a resync snapshot read off the wire.
const maxSnapshotBytes = 256 << 20

// Hello kinds.
const (
	helloKindStream = "stream"
	helloKindVote   = "vote"
)

// hello is the dialer's opening line: a leader opening a frame stream
// or a candidate soliciting a vote.
type hello struct {
	Proto string `json:"proto"`
	// Kind distinguishes a frame stream from a vote solicitation.
	Kind string `json:"kind,omitempty"`
	// Term and Seq describe the dialer's journal head; Start is the
	// sequence of the record that began its term.
	Term  uint64 `json:"term"`
	Seq   uint64 `json:"seq"`
	Start uint64 `json:"start"`
	// LastTerm is the term governing the record at Seq — the log
	// position voters compare against their own (vote hellos).
	LastTerm uint64 `json:"last_term,omitempty"`
	// Candidate identifies the campaigner on a vote hello, so a voter
	// can re-grant idempotently and never double-vote in a term.
	Candidate string `json:"candidate,omitempty"`
	// URL is the dialer's advertised API base URL (clients of a
	// deposed node are redirected here).
	URL string `json:"url,omitempty"`
}

// helloReply is the acceptor's answer.
type helloReply struct {
	OK bool `json:"ok"`
	// Proto echoes the accepted protocol version.
	Proto string `json:"proto,omitempty"`
	// Term and Have describe the acceptor's journal head; the leader
	// uses them to choose incremental catch-up or a snapshot resync.
	Term uint64 `json:"term"`
	Have uint64 `json:"have"`
	// Granted reports a vote grant on a vote solicitation; Voted is
	// the highest term the voter has cast a vote in, which a refused
	// candidate's next campaign must exceed.
	Granted bool   `json:"granted,omitempty"`
	Voted   uint64 `json:"voted,omitempty"`
	Reason  string `json:"reason,omitempty"`
}

func (n *Node) acceptLoop(ln net.Listener) {
	defer n.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			n.serve(conn)
		}()
	}
}

func writeJSONLine(w io.Writer, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = w.Write(append(data, '\n'))
	return err
}

// serve handles one inbound replication stream: handshake (term
// fencing happens here), then the ingest loop.
func (n *Node) serve(conn net.Conn) {
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(handshakeTimeout))
	br := bufio.NewReader(conn)
	line, err := br.ReadBytes('\n')
	if err != nil {
		return
	}
	var h hello
	if err := json.Unmarshal(line, &h); err != nil || h.Proto != Proto {
		writeJSONLine(conn, helloReply{OK: false, Reason: "bad protocol"})
		return
	}
	switch h.Kind {
	case helloKindStream:
	case helloKindVote:
		n.handleVote(conn, h)
		return
	default:
		writeJSONLine(conn, helloReply{OK: false, Reason: "unknown hello kind"})
		return
	}

	n.mu.Lock()
	switch {
	case n.closed:
		// Close already shut the registered ingests; a stream registered
		// now would never be closed and Close would wait on it forever.
		n.mu.Unlock()
		return
	case h.Term < n.term:
		// A stale leader (or a peer that fell behind a promotion it
		// has not heard about). Refuse; our term in the reply fences it.
		rep := helloReply{OK: false, Term: n.term, Reason: fmt.Sprintf("stale term %d (current %d)", h.Term, n.term)}
		n.mu.Unlock()
		writeJSONLine(conn, rep)
		return
	case h.Term == n.term && n.role == controller.RoleLeader:
		// Two live leaders claiming the same term: never yield on a
		// tie — a split brain must lose on at least one side.
		rep := helloReply{OK: false, Term: n.term, Reason: "split brain: equal term from another leader"}
		n.mu.Unlock()
		n.logf("replication: refused equal-term leader hello (term %d)", h.Term)
		writeJSONLine(conn, rep)
		return
	}
	if h.Term > n.term {
		if n.role == controller.RoleLeader {
			n.fenceLocked(h.URL, fmt.Sprintf("deposed by term %d (own term %d)", h.Term, n.term))
		}
		n.term = h.Term
		// Advancing the term invalidates every other inbound stream:
		// their handshakes were for an older term, and acking an
		// old-term frame after this point could count toward a deposed
		// leader's quorum.
		for _, c := range n.ingests {
			c.Close()
		}
		n.ingests = nil
	}
	n.leaderURL = h.URL
	n.lastContact = time.Now()
	n.everHeard = true
	st := n.store.State()
	rep := helloReply{OK: true, Proto: Proto, Term: st.Term, Have: st.Seq}
	n.ingests = append(n.ingests, conn)
	n.mu.Unlock()
	defer n.dropIngest(conn)

	if err := writeJSONLine(conn, rep); err != nil {
		return
	}
	conn.SetDeadline(time.Time{})
	n.ingestLoop(conn, br)
}

func (n *Node) dropIngest(conn net.Conn) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for i, c := range n.ingests {
		if c == conn {
			n.ingests = append(n.ingests[:i], n.ingests[i+1:]...)
			return
		}
	}
}

// ingestLoop applies the leader's tagged messages until the stream
// breaks, this node is promoted, or a gap forces a re-handshake.
func (n *Node) ingestLoop(conn net.Conn, br *bufio.Reader) {
	ackBuf := make([]byte, 8)
	ack := func(seq uint64) bool {
		binary.LittleEndian.PutUint64(ackBuf, seq)
		_, err := conn.Write(ackBuf)
		return err == nil
	}
	for {
		tag, err := br.ReadByte()
		if err != nil {
			return
		}
		switch tag {
		case 'H':
			var b [8]byte
			if _, err := io.ReadFull(br, b[:]); err != nil {
				return
			}
			n.mu.Lock()
			n.leaderSeq = binary.LittleEndian.Uint64(b[:])
			n.lastContact = time.Now()
			n.mu.Unlock()

		case 'S':
			var lb [4]byte
			if _, err := io.ReadFull(br, lb[:]); err != nil {
				return
			}
			size := binary.LittleEndian.Uint32(lb[:])
			if size > maxSnapshotBytes {
				n.logf("replication: oversized snapshot (%d bytes), dropping stream", size)
				return
			}
			data := make([]byte, size)
			if _, err := io.ReadFull(br, data); err != nil {
				return
			}
			st := journal.NewState()
			if err := json.Unmarshal(data, st); err != nil {
				n.logf("replication: corrupt snapshot: %v", err)
				return
			}
			err := n.ctl.ResetToState(st, func() error {
				n.mu.Lock()
				defer n.mu.Unlock()
				if n.role != controller.RoleStandby {
					return errors.New("no longer a standby")
				}
				if err := n.store.ResetTo(st); err != nil {
					return err
				}
				n.term = max(n.term, st.Term)
				n.lastContact = time.Now()
				return nil
			})
			if err != nil {
				n.logf("replication: snapshot resync: %v, dropping stream", err)
				return
			}
			n.resyncs.Add(1)
			if !ack(st.Seq) {
				return
			}

		case 'F':
			frame, err := readFrame(br)
			if err != nil {
				return
			}
			seq, err := n.ingestFrame(frame)
			if err != nil {
				n.logf("replication: frame seq %d: %v, dropping stream", seq, err)
				return
			}
			if !ack(seq) {
				return
			}

		default:
			n.logf("replication: unknown message tag %q, dropping stream", tag)
			return
		}
	}
}

var errDuplicate = errors.New("duplicate frame")

// ingestFrame folds one frame into the store and the controller, both
// or neither, and returns its sequence number. ApplyRecord refuses a
// config that does not build before the store ingests the frame under
// n.mu; the controller adopts it once n.mu is released, since a leader
// takes the two locks the other way round (commitLocked calls
// AppendSync). A duplicate from a reconnect replay changes nothing.
func (n *Node) ingestFrame(frame []byte) (uint64, error) {
	recs, valid := journal.DecodeAll(frame, 0)
	if valid != int64(len(frame)) || len(recs) != 1 {
		return 0, errors.New("corrupt frame off the wire")
	}
	rec := recs[0]
	err := n.ctl.ApplyRecord(rec, func() error {
		n.mu.Lock()
		defer n.mu.Unlock()
		if n.role != controller.RoleStandby {
			return errors.New("no longer a standby")
		}
		if rec.Seq <= n.store.Seq() {
			n.lastContact = time.Now()
			return errDuplicate
		}
		// A gap fails here; the re-handshake resolves the catch-up point.
		if err := n.store.IngestFrame(frame, rec); err != nil {
			return err
		}
		if rec.Type == journal.EvTerm {
			n.term = max(n.term, rec.Term)
		}
		n.lastContact = time.Now()
		n.framesIngested.Add(1)
		return nil
	})
	if errors.Is(err, errDuplicate) {
		err = nil
	}
	return rec.Seq, err
}

// readFrame reads one length-prefixed journal frame (header + payload)
// off the stream, verbatim.
func readFrame(br *bufio.Reader) ([]byte, error) {
	header := make([]byte, 8)
	if _, err := io.ReadFull(br, header); err != nil {
		return nil, err
	}
	size := binary.LittleEndian.Uint32(header[:4])
	if size == 0 || size > journal.MaxRecordSize {
		return nil, fmt.Errorf("replication: bad frame length %d", size)
	}
	frame := make([]byte, 8+int(size))
	copy(frame, header)
	if _, err := io.ReadFull(br, frame[8:]); err != nil {
		return nil, err
	}
	return frame, nil
}

// peerLoop keeps one standby stream alive while this node leads.
func (n *Node) peerLoop(p *peer) {
	defer n.wg.Done()
	for {
		n.mu.Lock()
		stop := n.closed || n.fenced || n.role != controller.RoleLeader
		n.mu.Unlock()
		if stop {
			return
		}
		if err := n.runPeer(p); err != nil {
			n.logf("replication: peer %s: %v", p.addr, err)
		}
		select {
		case <-n.stop:
			return
		case <-time.After(n.cfg.RedialEvery):
		}
	}
}

func (n *Node) dial(addr string) (net.Conn, error) {
	if n.cfg.Dial != nil {
		return n.cfg.Dial(addr)
	}
	return net.DialTimeout("tcp", addr, handshakeTimeout)
}

// runPeer drives one connection: handshake, catch-up (incremental
// from disk, or a snapshot when the standby's history diverged or was
// compacted away), then live frames + heartbeats.
func (n *Node) runPeer(p *peer) error {
	conn, err := n.dial(p.addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(handshakeTimeout))

	n.mu.Lock()
	st := n.store.State()
	h := hello{Proto: Proto, Kind: helloKindStream, Term: n.term, Seq: st.Seq, Start: st.TermStart,
		LastTerm: st.Term, URL: n.cfg.AdvertiseURL}
	n.mu.Unlock()
	if err := writeJSONLine(conn, h); err != nil {
		return err
	}
	br := bufio.NewReader(conn)
	line, err := br.ReadBytes('\n')
	if err != nil {
		return err
	}
	var rep helloReply
	if err := json.Unmarshal(line, &rep); err != nil {
		return fmt.Errorf("bad hello reply: %v", err)
	}
	if !rep.OK {
		n.mu.Lock()
		if rep.Term > n.term {
			n.fenceLocked("", fmt.Sprintf("refused by peer %s at term %d (own term %d)", p.addr, rep.Term, n.term))
		}
		n.mu.Unlock()
		return fmt.Errorf("peer refused: %s", rep.Reason)
	}
	conn.SetDeadline(time.Time{})

	// Choose the catch-up under the lock and register the live channel
	// in the same critical section: every append after this point goes
	// to the channel, everything before is in the backlog (or the
	// snapshot) — no gap, no overlap.
	n.mu.Lock()
	if n.closed || n.fenced || n.role != controller.RoleLeader {
		n.mu.Unlock()
		return nil
	}
	st = n.store.State()
	var backlog [][]byte
	var snap *journal.State
	incremental := false
	if rep.Have <= st.Seq {
		// Log matching: the follower's journal is a clean prefix of
		// ours iff the term governing its last record IN OUR HISTORY
		// equals the term its own tail claims — terms uniquely
		// identify a leader's history, so matching tails mean
		// matching prefixes. Term 0 (pre-replication records) proves
		// nothing: two independently booted journals share seqs but
		// not history, so only the empty position qualifies. States
		// predating term-history tracking fall back to the pair-era
		// check (same-term suffix only).
		incremental = rep.Have == 0
		if !incremental {
			if t, ok := st.TermAt(rep.Have); ok && t > 0 {
				incremental = t == rep.Term
			} else {
				incremental = rep.Term == st.Term && rep.Have >= st.TermStart
			}
		}
	}
	if incremental {
		recs, rerr := n.store.RecordsAfter(rep.Have)
		switch {
		case rerr == journal.ErrCompacted:
			snap = st
		case rerr != nil:
			n.mu.Unlock()
			return rerr
		default:
			for _, r := range recs {
				f, ferr := journal.EncodeRecord(r)
				if ferr != nil {
					n.mu.Unlock()
					return ferr
				}
				backlog = append(backlog, f)
			}
		}
	} else {
		// The follower is ahead (forked suffix), on a diverged term,
		// or at a position we cannot prove is a clean prefix: rewrite
		// it with the whole state.
		snap = st
	}
	p.ch = make(chan []byte, 1024)
	p.conn = conn
	p.acked = 0
	if snap == nil {
		// An incremental follower provably holds everything through
		// rep.Have: count it toward quorums immediately, so a
		// post-failover leader plus one up-to-date survivor can
		// commit without waiting for fresh traffic.
		p.acked = rep.Have
	}
	p.live = true
	// From here on this peer votes: sync appends in this term wait for
	// its acknowledgement.
	p.termConnected = n.term
	n.maybeResolveLocked()
	n.mu.Unlock()
	defer func() {
		n.mu.Lock()
		if p.conn == conn {
			p.live = false
			p.conn = nil
		}
		n.mu.Unlock()
	}()

	// Ack reader: resolves AppendSync waiters as acknowledgements come
	// back. Exits when the connection dies.
	errc := make(chan error, 1)
	go func() {
		var b [8]byte
		for {
			if _, err := io.ReadFull(br, b[:]); err != nil {
				errc <- err
				return
			}
			seq := binary.LittleEndian.Uint64(b[:])
			n.mu.Lock()
			if p.conn == conn && seq > p.acked {
				p.acked = seq
				n.maybeResolveLocked()
			}
			n.mu.Unlock()
		}
	}()

	bw := bufio.NewWriter(conn)
	if snap != nil {
		data, merr := marshalState(snap)
		if merr != nil {
			return merr
		}
		var lb [4]byte
		binary.LittleEndian.PutUint32(lb[:], uint32(len(data)))
		bw.WriteByte('S')
		bw.Write(lb[:])
		if _, err := bw.Write(data); err != nil {
			return err
		}
		n.logf("replication: peer %s: snapshot resync at seq %d", p.addr, snap.Seq)
	}
	for _, f := range backlog {
		bw.WriteByte('F')
		if _, err := bw.Write(f); err != nil {
			return err
		}
		n.framesShipped.Add(1)
	}
	if err := bw.Flush(); err != nil {
		return err
	}

	hb := time.NewTicker(n.cfg.HeartbeatEvery)
	defer hb.Stop()
	var hbBuf [9]byte
	hbBuf[0] = 'H'
	for {
		select {
		case <-n.stop:
			return nil
		case err := <-errc:
			return err
		case f := <-p.ch:
			bw.WriteByte('F')
			if _, err := bw.Write(f); err != nil {
				return err
			}
			// Drain whatever else is queued before flushing once.
		drain:
			for {
				select {
				case more := <-p.ch:
					bw.WriteByte('F')
					if _, err := bw.Write(more); err != nil {
						return err
					}
					n.framesShipped.Add(1)
				default:
					break drain
				}
			}
			n.framesShipped.Add(1)
			if err := bw.Flush(); err != nil {
				return err
			}
		case <-hb.C:
			n.mu.Lock()
			seq := n.store.Seq()
			stale := n.fenced || n.role != controller.RoleLeader || n.closed
			n.mu.Unlock()
			if stale {
				return nil
			}
			binary.LittleEndian.PutUint64(hbBuf[1:], seq)
			if _, err := bw.Write(hbBuf[:]); err != nil {
				return err
			}
			if err := bw.Flush(); err != nil {
				return err
			}
		}
	}
}
