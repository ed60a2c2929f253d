// Package fsm defines the finite-state-machine property specifications that
// Grapple checks (paper §1, §2) and the transition relations the dataflow
// phase composes during transitive closure.
//
// An FSM applies to one object type (FileWriter, Lock, Socket, ...). Events
// are method names invoked on tracked objects plus the implicit "new" event.
// Any (state, event) pair without an explicit transition moves to the
// implicit Error state ("an event that makes the object transition to an
// unacceptable state indicates a bug"). Relations over the (≤15 user states
// + Error) state set are bit matrices, so composing two dataflow edges is a
// handful of word operations — cheap enough to run inside the engine's
// edge-pair join.
package fsm

import (
	"fmt"
	"hash/fnv"
	"slices"
	"sort"
	"strings"
)

// MaxStates bounds the number of states including the implicit Error state.
const MaxStates = 16

// ErrorState is the implicit error state's index in every FSM.
const ErrorState = 0

// FSM is a finite-state property for one object type.
type FSM struct {
	Name string
	// Type is the object type the FSM applies to.
	Type string
	// States holds state names; index 0 is always the implicit "Error".
	States []string
	// Init is the state before any event (usually "Init"/"Uninit").
	Init int
	// Accept is a bitmask of states acceptable at object death / program
	// exit.
	Accept uint16
	// trans[s][event] = target state.
	trans []map[string]int
	// events in insertion order (for diagnostics).
	events []string
	// safeEvents marks events that are safe to perform on an object shared
	// with a concurrently running task without external synchronization
	// (sync.Mutex.Lock, context.CancelFunc invocation, ...). The GR002 lint
	// rule exempts them; everything else on a goroutine-shared object wants
	// a dominating guard acquire.
	safeEvents map[string]bool
}

// New creates an FSM for the given object type with the given user states;
// the first user state is initial. "Error" is added implicitly at index 0.
func New(name, typ string, states ...string) (*FSM, error) {
	if len(states) == 0 {
		return nil, fmt.Errorf("fsm %s: need at least one state", name)
	}
	if len(states)+1 > MaxStates {
		return nil, fmt.Errorf("fsm %s: too many states (max %d)", name, MaxStates-1)
	}
	f := &FSM{Name: name, Type: typ, States: append([]string{"Error"}, states...)}
	f.Init = 1
	f.trans = make([]map[string]int, len(f.States))
	for i := range f.trans {
		f.trans[i] = map[string]int{}
	}
	return f, nil
}

// StateIndex returns the index of a state name, or -1.
func (f *FSM) StateIndex(name string) int {
	for i, s := range f.States {
		if s == name {
			return i
		}
	}
	return -1
}

// SetInit sets the initial state by name.
func (f *FSM) SetInit(state string) error {
	i := f.StateIndex(state)
	if i < 0 {
		return fmt.Errorf("fsm %s: unknown state %q", f.Name, state)
	}
	f.Init = i
	return nil
}

// SetAccept marks states acceptable at exit.
func (f *FSM) SetAccept(states ...string) error {
	f.Accept = 0
	for _, s := range states {
		i := f.StateIndex(s)
		if i < 0 {
			return fmt.Errorf("fsm %s: unknown state %q", f.Name, s)
		}
		f.Accept |= 1 << uint(i)
	}
	return nil
}

// AddTransition adds "from --event--> to".
func (f *FSM) AddTransition(from, event, to string) error {
	fi, ti := f.StateIndex(from), f.StateIndex(to)
	if fi < 0 || ti < 0 {
		return fmt.Errorf("fsm %s: unknown state in %s --%s--> %s", f.Name, from, event, to)
	}
	if _, dup := f.trans[fi][event]; dup {
		return fmt.Errorf("fsm %s: duplicate transition %s --%s-->", f.Name, from, event)
	}
	f.trans[fi][event] = ti
	f.events = append(f.events, event)
	return nil
}

// Step returns the successor of state s on event; undefined transitions go
// to Error, and Error is absorbing.
func (f *FSM) Step(s int, event string) int {
	if s == ErrorState {
		return ErrorState
	}
	if t, ok := f.trans[s][event]; ok {
		return t
	}
	return ErrorState
}

// Events returns the sorted set of event names the FSM mentions.
func (f *FSM) Events() []string {
	set := map[string]bool{}
	for _, e := range f.events {
		set[e] = true
	}
	out := make([]string, 0, len(set))
	for e := range set {
		out = append(out, e)
	}
	sort.Strings(out)
	return out
}

// Fingerprint is a canonical digest of everything the FSM checks: its
// name, object type, states in order, initial state, accept set, every
// transition (sorted) and its concurrency-safe events (sorted). Two FSMs
// built in different orders from one definition share it; an edited body
// under the same name does not. Resume tags hash it, so a journal written
// for one definition is not replayed under another.
func (f *FSM) Fingerprint() uint64 {
	lines := []string{fmt.Sprintf("fsm %q for %q states %q init %d accept %#x",
		f.Name, f.Type, f.States, f.Init, f.Accept)}
	for from, m := range f.trans {
		for ev, to := range m {
			lines = append(lines, fmt.Sprintf("trans %d %q %d", from, ev, to))
		}
	}
	for ev := range f.safeEvents {
		lines = append(lines, fmt.Sprintf("safe %q", ev))
	}
	slices.Sort(lines[1:])
	h := fnv.New64a()
	for _, l := range lines {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	return h.Sum64()
}

// IsAccept reports whether state s is acceptable at exit.
func (f *FSM) IsAccept(s int) bool { return f.Accept&(1<<uint(s)) != 0 }

// MarkConcurrencySafe declares events safe to perform without external
// synchronization on an object shared with a spawned task.
func (f *FSM) MarkConcurrencySafe(events ...string) {
	if f.safeEvents == nil {
		f.safeEvents = map[string]bool{}
	}
	for _, ev := range events {
		f.safeEvents[ev] = true
	}
}

// IsConcurrencySafe reports whether an event was marked by
// MarkConcurrencySafe.
func (f *FSM) IsConcurrencySafe(event string) bool { return f.safeEvents[event] }

// Rel is a transition relation over FSM states: Rel[i] is the bitmask of
// states reachable from state i. Composing relations is a tiny boolean
// matrix product, which keeps typestate tracking inside the engine's
// edge-pair computation model.
type Rel [MaxStates]uint16

// Identity returns the identity relation.
func Identity() Rel {
	var r Rel
	for i := range r {
		r[i] = 1 << uint(i)
	}
	return r
}

// EventRel returns the relation of a single event under f.
func EventRel(f *FSM, event string) Rel {
	var r Rel
	for i := 0; i < len(f.States); i++ {
		r[i] = 1 << uint(f.Step(i, event))
	}
	return r
}

// Compose returns a∘b: first a, then b.
func Compose(a, b Rel) Rel {
	var out Rel
	for i := 0; i < MaxStates; i++ {
		row := a[i]
		var acc uint16
		for row != 0 {
			j := trailingZeros16(row)
			row &^= 1 << uint(j)
			acc |= b[j]
		}
		out[i] = acc
	}
	return out
}

// Union returns the pointwise union of two relations.
func Union(a, b Rel) Rel {
	var out Rel
	for i := range out {
		out[i] = a[i] | b[i]
	}
	return out
}

// IsIdentity reports whether r is the identity relation.
func (r Rel) IsIdentity() bool { return r == Identity() }

// Apply returns the set of states reachable from state s.
func (r Rel) Apply(s int) uint16 { return r[s] }

// Pack serializes the relation to 32 bytes (little-endian rows).
func (r Rel) Pack(dst []byte) []byte {
	for _, row := range r {
		dst = append(dst, byte(row), byte(row>>8))
	}
	return dst
}

// UnpackRel deserializes a relation packed by Pack. It returns an error
// (never panics) when src is shorter than PackedRelSize, so a truncated or
// corrupted payload is diagnosable instead of decoding as garbage.
func UnpackRel(src []byte) (Rel, []byte, error) {
	var r Rel
	if len(src) < PackedRelSize {
		return r, nil, fmt.Errorf("fsm: packed relation needs %d bytes, have %d", PackedRelSize, len(src))
	}
	for i := range r {
		r[i] = uint16(src[2*i]) | uint16(src[2*i+1])<<8
	}
	return r, src[2*MaxStates:], nil
}

// PackedRelSize is the byte size of a packed relation.
const PackedRelSize = 2 * MaxStates

func trailingZeros16(x uint16) int {
	n := 0
	for x&1 == 0 {
		x >>= 1
		n++
	}
	return n
}

// String renders the FSM.
func (f *FSM) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fsm %s (type %s) init=%s accept=", f.Name, f.Type, f.States[f.Init])
	var acc []string
	for i, s := range f.States {
		if f.IsAccept(i) {
			acc = append(acc, s)
		}
	}
	b.WriteString(strings.Join(acc, ","))
	return b.String()
}
