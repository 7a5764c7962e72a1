// Leader election for quorum groups (N ≥ 3).
//
// A candidate campaigns at a term one past the highest it has seen
// (journal term, observed term, a term it already voted in, or a term
// a voter refusing it had voted in), votes for itself, and solicits
// the rest of the group over short-lived connections (hello kind
// "vote"). A voter grants at most one vote
// per term — persisted to a side file before the reply leaves, so a
// crash-restart cannot double-vote — and only to a candidate whose
// journal is at least as up-to-date as its own (Raft's log-matching
// comparison on (last term, last seq)). The candidate promotes only
// with a majority including its own vote, journaling the EvTerm
// record at exactly the campaigned term.
//
// Safety: two leaders for one term would need two disjoint
// majorities; any two majorities intersect, and the intersection
// voted at most once in that term. The up-to-date check means the
// winner's journal holds every majority-committed record, so the new
// term extends — never rewrites — acknowledged history.
//
// A candidate does NOT adopt its campaigned term into n.term on
// candidacy: a follower stuck behind a partition may campaign (and
// lose) many times, and on heal it must rejoin the healthy leader's
// term rather than depose it with an inflated one. Terms advance only
// through won elections, granted votes, and observed streams; a
// voter's ledger term learned from a refusal only floors the next
// campaign.
package replication

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/in-net/innet/internal/controller"
)

// voteFileName is the per-term vote ledger kept next to the journal.
const voteFileName = "replvote.json"

// voteState is the persisted single-vote-per-term record.
type voteState struct {
	Term uint64 `json:"term"`
	For  string `json:"for"`
}

// errElectionLost reports a campaign that did not reach a majority.
var errElectionLost = errors.New("replication: election lost (no majority)")

func (n *Node) voteFilePath() string {
	return filepath.Join(n.store.Dir(), voteFileName)
}

// loadVote restores the vote ledger at boot (missing file = never
// voted). Corrupt files are treated as absent: the journal's term
// records still floor future campaign terms, so the worst case is a
// re-vote in a term this node already voted in — possible only after
// a torn write to the ledger itself, documented in FORMATS.md.
func (n *Node) loadVote() {
	data, err := os.ReadFile(n.voteFilePath())
	if err != nil {
		return
	}
	var v voteState
	if json.Unmarshal(data, &v) != nil {
		return
	}
	n.votedTerm, n.votedFor = v.Term, v.For
}

// persistVoteLocked durably records a vote before it takes effect.
// Write-temp + fsync + rename, like the journal's snapshots.
func (n *Node) persistVoteLocked(term uint64, candidate string) error {
	data, err := json.Marshal(voteState{Term: term, For: candidate})
	if err != nil {
		return err
	}
	path := n.voteFilePath()
	tmp, err := os.CreateTemp(n.store.Dir(), voteFileName+".tmp")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return err
	}
	n.votedTerm, n.votedFor = term, candidate
	return nil
}

// candidateIDLocked is this node's identity on ballots: the
// advertised API URL when set, otherwise the bound replication
// listener address. Caller holds n.mu.
func (n *Node) candidateIDLocked() string {
	if n.cfg.AdvertiseURL != "" {
		return n.cfg.AdvertiseURL
	}
	if n.ln != nil {
		return n.ln.Addr().String()
	}
	return n.cfg.ListenAddr
}

// runElection campaigns for leadership: self-vote at a bumped term,
// solicit the group, promote on majority. Returns errElectionLost on
// a lost or timed-out vote — the supervisor retries after a jittered
// backoff.
func (n *Node) runElection() error {
	n.mu.Lock()
	if n.fenced {
		n.mu.Unlock()
		return ErrFenced
	}
	if n.closed || n.role == controller.RoleLeader {
		n.mu.Unlock()
		return nil
	}
	st := n.store.State()
	term := max(n.term, st.Term, n.votedTerm, n.refusedAt) + 1
	// Term 1 is reserved for the configured boot leader's founding
	// record: an elected leader always carries term ≥ 2, so a
	// never-heard group electing among itself cannot collide with a
	// boot leader it has not met.
	if term < 2 {
		term = 2
	}
	id := n.candidateIDLocked()
	if err := n.persistVoteLocked(term, id); err != nil {
		n.mu.Unlock()
		return fmt.Errorf("replication: election: persist self-vote: %w", err)
	}
	req := hello{
		Proto:     Proto,
		Kind:      helloKindVote,
		Term:      term,
		Seq:       st.Seq,
		LastTerm:  st.Term,
		Candidate: id,
		URL:       n.cfg.AdvertiseURL,
	}
	majority := n.majorityLocked()
	addrs := make([]string, len(n.peers))
	for i, p := range n.peers {
		addrs[i] = p.addr
	}
	down := time.Since(n.lastContact)
	timeout := n.cfg.ElectionTimeout
	n.mu.Unlock()

	n.electionsStarted.Add(1)
	n.logf("replication: campaigning for term %d (%d/%d votes needed)", term, majority, len(addrs)+1)

	results := make(chan helloReply, len(addrs))
	for _, addr := range addrs {
		go func(addr string) {
			results <- n.solicitVote(addr, req, timeout)
		}(addr)
	}
	votes := 1 // self
	var maxSeen, maxVoted uint64
	var refusals []string
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for pending := len(addrs); pending > 0 && votes < majority; pending-- {
		select {
		case b := <-results:
			if b.Granted {
				votes++
			} else if b.Reason != "" {
				refusals = append(refusals, b.Reason)
			}
			maxSeen = max(maxSeen, b.Term)
			maxVoted = max(maxVoted, b.Voted)
		case <-deadline.C:
			pending = 0
		case <-n.stop:
			return fmt.Errorf("replication: node closed")
		}
	}

	n.mu.Lock()
	if maxSeen > n.term {
		// A peer already lives in a higher term: adopt it so the next
		// campaign (if any) clears it.
		n.term = maxSeen
	}
	n.refusedAt = max(n.refusedAt, maxVoted)
	if votes < majority {
		n.mu.Unlock()
		n.electionsLost.Add(1)
		n.logf("replication: election for term %d lost (%d/%d votes; refused: %s)", term, votes, majority, strings.Join(refusals, "; "))
		return fmt.Errorf("%w: term %d, %d/%d votes", errElectionLost, term, votes, majority)
	}
	if n.fenced || n.closed || n.role == controller.RoleLeader || n.term > term {
		// The world moved while we were counting: a higher-term leader
		// surfaced, or a concurrent path already promoted us.
		n.mu.Unlock()
		n.electionsLost.Add(1)
		return fmt.Errorf("%w: term %d superseded during count", errElectionLost, term)
	}
	if err := n.promoteToTermLocked(term); err != nil {
		n.mu.Unlock()
		n.electionsLost.Add(1)
		return fmt.Errorf("replication: election: term record: %w", err)
	}
	n.mu.Unlock()
	n.electionsWon.Add(1)
	n.finishPromotion(term, down)
	return nil
}

// solicitVote asks one peer for its vote over a short-lived
// connection. An unreachable peer, or one whose reply does not parse,
// answers with the zero reply: no vote.
func (n *Node) solicitVote(addr string, req hello, timeout time.Duration) helloReply {
	var rep helloReply
	conn, err := n.dial(addr)
	if err != nil {
		return rep
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(timeout))
	if err := writeJSONLine(conn, req); err != nil {
		return rep
	}
	line, err := bufio.NewReader(conn).ReadBytes('\n')
	if err != nil || json.Unmarshal(line, &rep) != nil {
		return helloReply{}
	}
	return rep
}

// handleVote is the voter side of an election, dispatched from the
// accept path on a hello with kind "vote". The connection carries
// exactly one reply line and closes.
func (n *Node) handleVote(conn net.Conn, h hello) {
	n.mu.Lock()
	st := n.store.State()
	var granted bool
	var reason string
	switch {
	case n.closed:
		reason = "node closed"
	case h.Candidate == "":
		reason = "no candidate identity"
	case h.Term < n.term:
		reason = fmt.Sprintf("stale term %d (current %d)", h.Term, n.term)
	case h.Term == n.term:
		// Re-grant idempotently to the candidate we already voted for
		// in this term (its first reply may have been lost); anyone
		// else is too late — this term is taken.
		granted = n.votedTerm == h.Term && n.votedFor == h.Candidate
		if !granted {
			reason = fmt.Sprintf("term %d already current", h.Term)
		}
	case n.votedTerm >= h.Term && n.votedFor != h.Candidate:
		reason = fmt.Sprintf("already voted in term %d", n.votedTerm)
	case h.LastTerm < st.Term || (h.LastTerm == st.Term && h.Seq < st.Seq):
		// The candidate's journal is behind ours: it cannot hold every
		// committed record, so electing it could lose acknowledged
		// history.
		reason = fmt.Sprintf("candidate log (term %d, seq %d) behind ours (term %d, seq %d)",
			h.LastTerm, h.Seq, st.Term, st.Seq)
	default:
		if err := n.persistVoteLocked(h.Term, h.Candidate); err != nil {
			reason = fmt.Sprintf("vote persistence failed: %v", err)
		} else {
			granted = true
		}
	}
	if granted && h.Term > n.term {
		// Adopting the candidate's term invalidates every inbound
		// stream: their handshakes were for the old term, and acking
		// an old-term frame after voting could let a deposed leader
		// count us toward its quorum. Cut them; the winner (old or
		// new) re-handshakes at its term.
		if n.role == controller.RoleLeader {
			n.fenceLocked(h.URL, fmt.Sprintf("deposed by election for term %d (own term %d)", h.Term, n.term))
		}
		n.term = h.Term
		for _, c := range n.ingests {
			c.Close()
		}
		n.ingests = nil
		n.votesGranted.Add(1)
		// Give the candidate its ElectionTimeout to establish before
		// this node considers campaigning itself.
		n.lastContact = time.Now()
	}
	rep := helloReply{OK: granted, Granted: granted, Proto: Proto, Term: n.term, Voted: n.votedTerm, Reason: reason}
	n.mu.Unlock()
	if granted {
		n.logf("replication: granted vote to %s for term %d", h.Candidate, h.Term)
	} else {
		n.logf("replication: refused vote to %s for term %d: %s", h.Candidate, h.Term, reason)
	}
	writeJSONLine(conn, rep)
}
