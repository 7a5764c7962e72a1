// Package journal is the controller's persistence layer: a
// length-prefixed, checksummed write-ahead journal of deployment
// lifecycle events plus periodic compacted snapshots. The paper's
// platform survives VM churn via ClickOS suspend/resume (§5); this
// package gives the controller — the single point of trust that
// admitted every module — the same story, so an `innetd` restart
// neither orphans running modules nor forgets admission decisions,
// and recovery never has to re-run the expensive symbolic-execution
// admission pipeline (§4.3) for modules whose platform still holds
// them.
//
// On-disk layout (one directory):
//
//	journal.log    frames appended per state transition
//	snapshot.json  compacted fold of every frame up to its Seq
//
// Frame format (see docs/FORMATS.md §7):
//
//	uint32  payload length (little-endian)
//	uint32  CRC-32 (IEEE) of the payload
//	[]byte  payload: one JSON-encoded Record
//
// Replay reads frames until the first torn or corrupt one — short
// header, short payload, oversized length, checksum mismatch, invalid
// JSON, or a non-increasing sequence number — and truncates the file
// there: a crash mid-append loses at most the record being written,
// never the prefix.
package journal

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// EventType tags one journal record.
type EventType string

// Journal record types: one per controller state transition.
const (
	// EvAdmit records a successful Deploy: the full request plus the
	// placement result, enough to rebuild the deployment without
	// re-running symbolic analysis.
	EvAdmit EventType = "admit"
	// EvReject records a refused Deploy (keeps the Rejections counter
	// truthful across restarts).
	EvReject EventType = "reject"
	// EvMigrate records a verified failover or recovery re-placement:
	// the deployment (same ID) on its new platform and address.
	EvMigrate EventType = "migrate"
	// EvMigrateFailed records a failover that found no passing
	// alternate platform; the deployment turns failed.
	EvMigrateFailed EventType = "migrate-failed"
	// EvKill records an explicit module kill.
	EvKill EventType = "kill"
	// EvPlatformDown / EvPlatformUp record platform health flips,
	// including the implied active↔degraded status sweeps.
	EvPlatformDown EventType = "platform-down"
	EvPlatformUp   EventType = "platform-up"
	// EvTerm records a leadership term change (replicated controller
	// fencing): the first record a node writes when it becomes leader.
	// Terms are strictly monotonic; a node that observes a higher term
	// than its own is deposed and must refuse further appends.
	EvTerm EventType = "term"
)

// Deployment lifecycle status names as journaled (the controller's
// DeploymentStatus.String values).
const (
	StatusActive   = "active"
	StatusDegraded = "degraded"
	StatusFailed   = "failed"
)

// DeploymentRecord is everything needed to rebuild a deployment on
// restart without re-running the admission pipeline: the placement
// result plus the original request (retained so recovery can re-run
// only the placement step when the hosting platform vanished).
//
// A record is immutable once a State holds it: states, their copies
// and the controller's deployments share record pointers, so a status
// change replaces the State's entry with a fresh record (withStatus)
// rather than writing the one it holds.
type DeploymentRecord struct {
	ID         string `json:"id"`
	Tenant     string `json:"tenant,omitempty"`
	ModuleName string `json:"module"`
	Platform   string `json:"platform"`
	Addr       uint32 `json:"addr"`
	Sandboxed  bool   `json:"sandboxed,omitempty"`
	// Verdict is the security check's verdict name (safe,
	// needs-sandbox); the full report is not persisted.
	Verdict string `json:"verdict,omitempty"`
	// Config is the deployed (possibly sandbox-wrapped,
	// $MODULE_IP-substituted) Click source.
	Config string `json:"config"`
	Status string `json:"status"`

	// The original request, for placement-only recovery.
	ReqConfig       string   `json:"req_config,omitempty"`
	ReqStock        string   `json:"req_stock,omitempty"`
	ReqRequirements string   `json:"req_requirements,omitempty"`
	Trust           int      `json:"trust,omitempty"`
	Whitelist       []string `json:"whitelist,omitempty"`
	Transparent     bool     `json:"transparent,omitempty"`
	ReqTraceEvery   int      `json:"req_trace_every,omitempty"`
}

// withStatus returns a copy of d carrying status s.
func (d *DeploymentRecord) withStatus(s string) *DeploymentRecord {
	c := *d
	c.Status = s
	return &c
}

// Record is one journal frame's payload.
type Record struct {
	// Seq is assigned by Store.Append: strictly increasing, never
	// reset by compaction.
	Seq  uint64    `json:"seq"`
	Type EventType `json:"type"`
	// Dep carries the full deployment for EvAdmit and EvMigrate.
	Dep *DeploymentRecord `json:"dep,omitempty"`
	// ID names the target deployment for EvMigrateFailed and EvKill
	// (and the refused module name for EvReject).
	ID       string `json:"id,omitempty"`
	Platform string `json:"platform,omitempty"`
	Reason   string `json:"reason,omitempty"`
	// NextID is the controller's ID counter at emission time, so a
	// recovered controller never reissues a deployment ID.
	NextID int `json:"next_id,omitempty"`
	// Term carries the new leadership term for EvTerm records.
	Term uint64 `json:"term,omitempty"`
}

// State is the fold of a snapshot plus every journal record after it:
// exactly the controller state the recovery path rebuilds.
type State struct {
	// Seq is the last applied record's sequence number.
	Seq uint64 `json:"seq"`
	// NextID is the controller's deployment ID counter.
	NextID int `json:"next_id"`
	// Deployments maps deployment ID to its latest record.
	Deployments map[string]*DeploymentRecord `json:"deployments"`
	// PlatformDown marks platforms last known unhealthy.
	PlatformDown map[string]bool `json:"platform_down,omitempty"`
	// Term is the last applied leadership term (0 = never replicated).
	Term uint64 `json:"term,omitempty"`
	// TermStart is the sequence number of the record that started the
	// current term — the replication handshake uses it to decide
	// whether a standby may catch up incrementally or must resync.
	TermStart uint64 `json:"term_start,omitempty"`
	// TermStarts maps every applied leadership term to the sequence
	// number of its term record — the full term history, not just the
	// current term. Replication's log-matching check uses it: a
	// follower whose journal head (have, term) lands inside the same
	// term of the leader's history holds a byte-identical prefix and
	// may catch up frame by frame; anything else needs a snapshot
	// resync. Nil on states written before terms were tracked (the
	// handshake then falls back to the current-term-only check).
	TermStarts map[uint64]uint64 `json:"term_starts,omitempty"`
	// Controller decision counters (the accounting identity).
	Placed           int `json:"placed"`
	Rejections       int `json:"rejections"`
	Migrations       int `json:"migrations"`
	FailedMigrations int `json:"failed_migrations"`
}

// NewState returns an empty state.
func NewState() *State {
	return &State{
		Deployments:  make(map[string]*DeploymentRecord),
		PlatformDown: make(map[string]bool),
	}
}

// Clone returns a copy whose maps are the caller's own. The records
// are shared: no State writes a record it holds.
func (st *State) Clone() *State {
	c := *st
	c.Deployments = make(map[string]*DeploymentRecord, len(st.Deployments))
	for id, d := range st.Deployments {
		c.Deployments[id] = d
	}
	c.PlatformDown = make(map[string]bool, len(st.PlatformDown))
	for p, down := range st.PlatformDown {
		c.PlatformDown[p] = down
	}
	if st.TermStarts != nil {
		c.TermStarts = make(map[uint64]uint64, len(st.TermStarts))
		for t, s := range st.TermStarts {
			c.TermStarts[t] = s
		}
	}
	return &c
}

// TermAt reports which leadership term governed the record at seq in
// this state's history: the highest term whose term record sits at or
// before seq (0 for records before the first term record). ok is
// false when the state predates term-history tracking (no TermStarts)
// and the answer is unknowable.
func (st *State) TermAt(seq uint64) (term uint64, ok bool) {
	if len(st.TermStarts) == 0 {
		return 0, false
	}
	var bestStart uint64
	for t, s := range st.TermStarts {
		if s <= seq && (term == 0 || s > bestStart || (s == bestStart && t > term)) {
			term, bestStart = t, s
		}
	}
	return term, true
}

// IDs returns the deployment IDs in sorted order (recovery iterates
// deterministically).
func (st *State) IDs() []string {
	ids := make([]string, 0, len(st.Deployments))
	for id := range st.Deployments {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// idNum extracts N from a "pm-N" deployment ID (0 if malformed).
func idNum(id string) int {
	n, err := strconv.Atoi(strings.TrimPrefix(id, "pm-"))
	if err != nil || n < 0 {
		return 0
	}
	return n
}

// Apply folds one record into the state. Unknown or dangling records
// (e.g. a status for a killed deployment) are ignored rather than
// rejected: a journal that truncated differently than the writer
// expected must still replay. Apply adopts an admit's or migrate's
// Dep as is, so the caller must not write it afterwards, and it
// writes no record: a status sweep replaces the entries it changes.
func (st *State) Apply(r Record) {
	st.Seq = r.Seq
	if r.NextID > st.NextID {
		st.NextID = r.NextID
	}
	switch r.Type {
	case EvAdmit:
		if r.Dep == nil {
			return
		}
		st.Deployments[r.Dep.ID] = r.Dep
		st.Placed++
		if n := idNum(r.Dep.ID); n > st.NextID {
			st.NextID = n
		}
	case EvReject:
		st.Rejections++
	case EvMigrate:
		if r.Dep == nil {
			return
		}
		st.Deployments[r.Dep.ID] = r.Dep
		st.Migrations++
		if n := idNum(r.Dep.ID); n > st.NextID {
			st.NextID = n
		}
	case EvMigrateFailed:
		if d, ok := st.Deployments[r.ID]; ok {
			st.Deployments[r.ID] = d.withStatus(StatusFailed)
		}
		st.FailedMigrations++
	case EvKill:
		delete(st.Deployments, r.ID)
	case EvPlatformDown:
		st.PlatformDown[r.Platform] = true
		st.sweep(r.Platform, StatusActive, StatusDegraded)
	case EvPlatformUp:
		delete(st.PlatformDown, r.Platform)
		st.sweep(r.Platform, StatusDegraded, StatusActive)
	case EvTerm:
		if r.Term > st.Term {
			st.Term = r.Term
			st.TermStart = r.Seq
			if st.TermStarts == nil {
				st.TermStarts = make(map[uint64]uint64)
			}
			st.TermStarts[r.Term] = r.Seq
		}
	}
}

// sweep moves every deployment on platform from status from to to.
func (st *State) sweep(platform, from, to string) {
	for id, d := range st.Deployments {
		if d.Platform == platform && d.Status == from {
			st.Deployments[id] = d.withStatus(to)
		}
	}
}

// Canonical renders the state with the replication bookkeeping (Seq,
// Term, TermStart) zeroed and stable key order: two histories that
// admitted the same deployments produce identical bytes even when a
// failover shifted sequence numbers and bumped the term. The chaos
// differential tests compare these digests to prove a crashed or
// partitioned run converged to the uncrashed run's state — no lost,
// duplicated or forked deployments.
func (st *State) Canonical() []byte {
	c := st.Clone()
	c.Seq = 0
	c.Term = 0
	c.TermStart = 0
	c.TermStarts = nil
	data, err := json.MarshalIndent(c, "", " ")
	if err != nil {
		// State is plain maps and scalars; Marshal cannot fail.
		panic("journal: canonical marshal: " + err.Error())
	}
	return data
}

// ---- Frame encoding --------------------------------------------------

const (
	frameHeader = 8 // uint32 length + uint32 crc
	// MaxRecordSize bounds one frame's payload; replay treats a
	// larger claimed length as corruption.
	MaxRecordSize = 16 << 20
)

// appendFrame encodes one record as a frame.
func appendFrame(buf []byte, payload []byte) []byte {
	var hdr [frameHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	buf = append(buf, hdr[:]...)
	return append(buf, payload...)
}

// EncodeRecord renders one record as a journal frame (exported for
// tests that craft journals byte by byte).
func EncodeRecord(r Record) ([]byte, error) {
	payload, err := json.Marshal(r)
	if err != nil {
		return nil, err
	}
	if len(payload) > MaxRecordSize {
		return nil, fmt.Errorf("journal: record %d exceeds %d bytes", r.Seq, MaxRecordSize)
	}
	return appendFrame(nil, payload), nil
}

// DecodeAll replays journal bytes: it returns every valid record up
// to (not including) the first torn or corrupt frame, plus the byte
// length of that valid prefix. afterSeq skips records already covered
// by a snapshot. DecodeAll never fails: corruption truncates.
func DecodeAll(data []byte, afterSeq uint64) (recs []Record, valid int64) {
	off := 0
	prev := afterSeq
	for {
		if len(data)-off < frameHeader {
			return recs, int64(off) // clean EOF or torn header
		}
		n := binary.LittleEndian.Uint32(data[off : off+4])
		sum := binary.LittleEndian.Uint32(data[off+4 : off+8])
		if n > MaxRecordSize || len(data)-off-frameHeader < int(n) {
			return recs, int64(off) // absurd length or torn payload
		}
		payload := data[off+frameHeader : off+frameHeader+int(n)]
		if crc32.ChecksumIEEE(payload) != sum {
			return recs, int64(off) // bit rot
		}
		var r Record
		if err := json.Unmarshal(payload, &r); err != nil {
			return recs, int64(off)
		}
		if len(recs) > 0 || afterSeq > 0 {
			// Sequence numbers must strictly increase; a replayed
			// record at or below the snapshot's Seq is skippable
			// (crash between snapshot write and journal truncate).
			if r.Seq <= prev {
				if r.Seq <= afterSeq && len(recs) == 0 {
					off += frameHeader + int(n)
					continue // pre-snapshot record, still valid prefix
				}
				return recs, int64(off)
			}
		}
		prev = r.Seq
		recs = append(recs, r)
		off += frameHeader + int(n)
	}
}

// ReplayFile reads a journal file tolerantly: valid records plus the
// byte length of the valid prefix. A missing file is an empty journal.
func ReplayFile(path string, afterSeq uint64) ([]Record, int64, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, err
	}
	recs, valid := DecodeAll(data, afterSeq)
	return recs, valid, nil
}

// writeFrame appends one frame to w.
func writeFrame(w io.Writer, r Record) error {
	frame, err := EncodeRecord(r)
	if err != nil {
		return err
	}
	_, err = w.Write(frame)
	return err
}
