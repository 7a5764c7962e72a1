package symexec

import (
	"fmt"
	"slices"
	"strings"
)

// Field names a symbolic packet header field. The standard fields
// mirror the paper's examples plus the synthetic fields used to push
// middlebox state into the flow.
type Field string

// Standard symbolic packet fields.
const (
	FieldSrcIP   Field = "ip_src"
	FieldDstIP   Field = "ip_dst"
	FieldProto   Field = "proto"
	FieldSrcPort Field = "src_port"
	FieldDstPort Field = "dst_port"
	FieldTTL     Field = "ttl"
	FieldTOS     Field = "tos"
	FieldPayload Field = "payload"
	// FieldFWTag is the stateful-firewall tag of the paper's Fig. 2:
	// middlebox state pushed into the flow.
	FieldFWTag Field = "fw_tag"
	// FieldPaint is the Click Paint annotation.
	FieldPaint Field = "paint"
)

// Width returns the bit width of a field.
func (f Field) Width() int {
	switch f {
	case FieldSrcIP, FieldDstIP:
		return 32
	case FieldSrcPort, FieldDstPort:
		return 16
	case FieldProto, FieldTTL, FieldTOS, FieldPaint:
		return 8
	case FieldPayload:
		return 64
	case FieldFWTag:
		return 8
	default:
		return 64
	}
}

// standardFields are initialized as fresh free variables in every new
// symbolic packet.
var standardFields = []Field{
	FieldSrcIP, FieldDstIP, FieldProto, FieldSrcPort, FieldDstPort,
	FieldTTL, FieldTOS, FieldPayload,
}

// VarID identifies a symbolic variable.
type VarID int32

// Expr is a symbolic value: either a constant or a reference to a
// variable. The zero value is Const(0).
type Expr struct {
	isVar bool
	c     uint64
	v     VarID
}

// Const returns a constant expression.
func Const(v uint64) Expr { return Expr{c: v} }

// Var returns a variable reference expression.
func Var(id VarID) Expr { return Expr{isVar: true, v: id} }

// IsConst reports whether e is a constant, returning its value.
func (e Expr) IsConst() (uint64, bool) { return e.c, !e.isVar }

// IsVar reports whether e is a variable reference, returning its id.
func (e Expr) IsVar() (VarID, bool) { return e.v, e.isVar }

func (e Expr) String() string {
	if e.isVar {
		return fmt.Sprintf("v%d", e.v)
	}
	return fmt.Sprintf("%d", e.c)
}

// Binding is a field's current expression plus the path index of the
// hop that last assigned it (-1 when never assigned since injection).
// DefHop is what invariant checking inspects: a field is invariant on
// the hop A→B iff its DefHop is not greater than the index of A.
type Binding struct {
	E      Expr
	DefHop int
}

// env is shared by all states split from one injected packet: it
// allocates fresh variable ids, and it hands out path nodes and
// states from small slabs, so a run allocates per slab rather than per
// hop or per branch. A run explores on one goroutine, so neither needs
// a lock. Slabs double from a small first size: a short run does not
// pay for a large slab, and a state or path node keeps only its own
// slab alive.
type env struct {
	nextVar VarID
	// nodes and states are the unused rest of the current slabs;
	// nodeSlab and stateSlab are those slabs' sizes (0 before the
	// first).
	nodes     []pathNode
	states    []State
	nodeSlab  int
	stateSlab int
}

// Slab sizes: the first slab of each kind, and the size at which
// doubling stops.
const (
	firstNodeSlab  = 8
	maxNodeSlab    = 256
	firstStateSlab = 4
	maxStateSlab   = 128
)

func (e *env) fresh() VarID {
	id := e.nextVar
	e.nextVar++
	return id
}

// newNode returns a zeroed path node from the node slab.
func (e *env) newNode() *pathNode {
	if len(e.nodes) == 0 {
		e.nodeSlab = nextSlab(e.nodeSlab, firstNodeSlab, maxNodeSlab)
		e.nodes = make([]pathNode, e.nodeSlab)
	}
	n := &e.nodes[0]
	e.nodes = e.nodes[1:]
	return n
}

// newState returns a zeroed state from the state slab.
func (e *env) newState() *State {
	if len(e.states) == 0 {
		e.stateSlab = nextSlab(e.stateSlab, firstStateSlab, maxStateSlab)
		e.states = make([]State, e.stateSlab)
	}
	s := &e.states[0]
	e.states = e.states[1:]
	return s
}

// nextSlab doubles the last slab size, starting at first and stopping
// at limit.
func nextSlab(last, first, limit int) int {
	if last == 0 {
		return first
	}
	return min(2*last, limit)
}

// Hop records one node traversal in a state's path.
type Hop struct {
	Node string
	Port int
}

func (h Hop) String() string { return fmt.Sprintf("%s:%d", h.Node, h.Port) }

// pathNode is one link of the immutable traversal path. Clones share
// path tails, so recording a hop is O(1) and cloning is independent
// of path length — this is what keeps whole-network reachability
// linear in topology size (the paper's Fig. 10 claim).
type pathNode struct {
	hop   Hop
	prev  *pathNode
	depth int
}

// fieldBinding is one entry of a state's sorted field table.
type fieldBinding struct {
	F Field
	B Binding
}

// varBinding is one entry of a state's sorted constraint table.
type varBinding struct {
	ID VarID
	IV IntervalSet
}

// State is one symbolic flow: field bindings, variable constraints
// and the path traversed so far. Both tables are small sorted slices
// rather than maps: a symbolic packet carries ~10 fields and a
// similar number of live variables, so binary/linear probes win.
// Clone shares both tables copy-on-write: a clone and its source mark
// the tables shared, and the first write to a shared table copies it,
// so a branch that is only read, or written in one table, never pays
// for the other. IntervalSets and path tails are immutable and shared.
type State struct {
	env    *env
	fields []fieldBinding // sorted by F
	vars   []varBinding   // sorted by ID
	path   *pathNode
	// fieldsShared and varsShared mark a table another state may
	// read: it must be copied before it is written. A state whose flag
	// is clear owns that table alone.
	fieldsShared bool
	varsShared   bool
	// Tag carries harness-specific context (e.g. requirement id).
	Tag string
}

// findField returns the index of f in the sorted field table and
// whether it is present; absent, the index is f's insertion point.
func (s *State) findField(f Field) (int, bool) {
	lo, hi := 0, len(s.fields)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.fields[mid].F < f {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(s.fields) && s.fields[lo].F == f
}

// setField replaces or sort-inserts a binding, first copying a
// shared table. Clipping a shared table makes the insert reallocate,
// so that copy is the insert's one allocation.
func (s *State) setField(f Field, b Binding) {
	i, ok := s.findField(f)
	if !ok {
		if s.fieldsShared {
			s.fields, s.fieldsShared = slices.Clip(s.fields), false
		}
		s.fields = slices.Insert(s.fields, i, fieldBinding{F: f, B: b})
		return
	}
	if s.fieldsShared {
		s.fields, s.fieldsShared = slices.Clone(s.fields), false
	}
	s.fields[i].B = b
}

// peekField reads a binding without materializing the lazy default.
func (s *State) peekField(f Field) (Binding, bool) {
	if i, ok := s.findField(f); ok {
		return s.fields[i].B, true
	}
	return Binding{}, false
}

// findVar mirrors findField for the constraint table.
func (s *State) findVar(id VarID) (int, bool) {
	lo, hi := 0, len(s.vars)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.vars[mid].ID < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(s.vars) && s.vars[lo].ID == id
}

// setVar replaces or sort-inserts a constraint, copying a shared
// table first as setField does. Fresh ids come from a monotonic
// allocator, so the common insert is an append.
func (s *State) setVar(id VarID, iv IntervalSet) {
	i, ok := s.findVar(id)
	if !ok {
		if s.varsShared {
			s.vars, s.varsShared = slices.Clip(s.vars), false
		}
		s.vars = slices.Insert(s.vars, i, varBinding{ID: id, IV: iv})
		return
	}
	if s.varsShared {
		s.vars, s.varsShared = slices.Clone(s.vars), false
	}
	s.vars[i].IV = iv
}

// peekVar reads a constraint entry.
func (s *State) peekVar(id VarID) (IntervalSet, bool) {
	if i, ok := s.findVar(id); ok {
		return s.vars[i].IV, true
	}
	return IntervalSet{}, false
}

// NewState returns a fully unconstrained symbolic packet: every
// standard field is a fresh free variable, exactly like the symbolic
// packet of the paper's Fig. 2 before any constraint applies.
func NewState() *State {
	e := &env{}
	s := e.newState()
	*s = State{
		env:    e,
		fields: make([]fieldBinding, 0, len(standardFields)+2),
		vars:   make([]varBinding, 0, len(standardFields)+2),
	}
	for _, f := range standardFields {
		id := s.env.fresh()
		s.setVar(id, Full(f.Width()))
		s.setField(f, Binding{E: Var(id), DefHop: -1})
	}
	return s
}

// Clone returns an independent copy sharing the variable allocator.
// The copy shares both tables with s until either state writes one.
func (s *State) Clone() *State {
	s.fieldsShared, s.varsShared = true, true
	c := s.env.newState()
	*c = *s
	return c
}

// Get returns the expression bound to field f. Standard header
// fields are initialized by NewState; synthetic state fields (e.g.
// fw_tag) default to the constant 0, reflecting "no middlebox state
// yet" — a free variable there would let an untagged flow
// spuriously satisfy a state check.
func (s *State) Get(f Field) Expr {
	if i, ok := s.findField(f); ok {
		return s.fields[i].B.E
	}
	e := Const(0)
	s.setField(f, Binding{E: e, DefHop: -1})
	return e
}

// Binding returns the full binding of field f (see Get).
func (s *State) Binding(f Field) Binding {
	if b, ok := s.peekField(f); ok {
		return b
	}
	b := Binding{E: Const(0), DefHop: -1}
	s.setField(f, b)
	return b
}

// Assign binds field f to expression e, recording the current hop as
// the definition site.
func (s *State) Assign(f Field, e Expr) {
	s.setField(f, Binding{E: e, DefHop: s.PathLen() - 1})
}

// AssignFresh binds field f to a brand-new free variable (used by
// models whose output value is unknown, e.g. tunnel decapsulation).
func (s *State) AssignFresh(f Field) Expr {
	id := s.env.fresh()
	s.setVar(id, Full(f.Width()))
	e := Var(id)
	s.Assign(f, e)
	return e
}

// Values returns the set of concrete values field f may take under
// the current constraints.
func (s *State) Values(f Field) IntervalSet {
	e := s.Get(f)
	if c, ok := e.IsConst(); ok {
		return Single(c)
	}
	id, _ := e.IsVar()
	if iv, ok := s.peekVar(id); ok {
		return iv
	}
	return Full(f.Width())
}

// Constrain intersects field f's possible values with allowed,
// returning false (and leaving s unusable) if the result is empty.
// Constraining a variable narrows it for every field aliasing it —
// that is what makes "ip_dst := ip_src" style aliasing sound.
func (s *State) Constrain(f Field, allowed IntervalSet) bool {
	e := s.Get(f)
	if c, ok := e.IsConst(); ok {
		return allowed.Contains(c)
	}
	id, _ := e.IsVar()
	cur, ok := s.peekVar(id)
	if !ok {
		cur = Full(f.Width())
	}
	next := cur.Intersect(allowed)
	if next.IsEmpty() {
		return false
	}
	s.setVar(id, next)
	return true
}

// VarValues returns the constraint set of a variable id.
func (s *State) VarValues(id VarID) IntervalSet {
	if iv, ok := s.peekVar(id); ok {
		return iv
	}
	return Full(64)
}

// SameVar reports whether fields a and b are bound to the same
// symbolic variable (aliased).
func (s *State) SameVar(a, b Field) bool {
	va, aok := s.Get(a).IsVar()
	vb, bok := s.Get(b).IsVar()
	return aok && bok && va == vb
}

// PushHop appends a hop to the path (O(1); clones sharing the old
// tail are unaffected).
func (s *State) PushHop(node string, port int) {
	depth := 1
	if s.path != nil {
		depth = s.path.depth + 1
	}
	n := s.env.newNode()
	*n = pathNode{hop: Hop{Node: node, Port: port}, prev: s.path, depth: depth}
	s.path = n
}

// PathLen returns the number of hops traversed.
func (s *State) PathLen() int {
	if s.path == nil {
		return 0
	}
	return s.path.depth
}

// LastHop returns the most recent hop; ok is false before the first.
func (s *State) LastHop() (Hop, bool) {
	if s.path == nil {
		return Hop{}, false
	}
	return s.path.hop, true
}

// Path materializes the traversal in order (for diagnostics/tests).
func (s *State) Path() []Hop {
	out := make([]Hop, s.PathLen())
	for n := s.path; n != nil; n = n.prev {
		out[n.depth-1] = n.hop
	}
	return out
}

// HopIndex returns the index of the last traversal of node (optionally
// filtering by port when port >= 0), or -1.
func (s *State) HopIndex(node string, port int) int {
	for n := s.path; n != nil; n = n.prev {
		if n.hop.Node == node && (port < 0 || n.hop.Port == port) {
			return n.depth - 1
		}
	}
	return -1
}

// Fields returns the sorted list of fields with explicit bindings.
func (s *State) Fields() []Field {
	out := make([]Field, len(s.fields))
	for i := range s.fields {
		out[i] = s.fields[i].F
	}
	return out
}

// String renders the state compactly for diagnostics, in the spirit
// of the paper's Fig. 2 trace table.
func (s *State) String() string {
	var b strings.Builder
	b.WriteString("{")
	for i := range s.fields {
		f, bind := s.fields[i].F, s.fields[i].B
		if i > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%s=%s", f, bind.E)
		if id, ok := bind.E.IsVar(); ok {
			if iv, have := s.peekVar(id); have && !iv.Equal(Full(f.Width())) {
				fmt.Fprintf(&b, "%s", iv)
			}
		}
	}
	fmt.Fprintf(&b, " path=%v}", s.Path())
	return b.String()
}
