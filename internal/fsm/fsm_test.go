package fsm

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestIOCheckerSemantics(t *testing.T) {
	f := BuiltinIO()
	s := f.Init
	for _, ev := range []string{"new", "write", "write", "close"} {
		s = f.Step(s, ev)
	}
	if !f.IsAccept(s) {
		t.Fatalf("new-write-write-close ends in %s, want accept", f.States[s])
	}
	// Write after close is an error.
	s = f.Step(s, "write")
	if s != ErrorState {
		t.Fatalf("write-after-close -> %s, want Error", f.States[s])
	}
	// Error is absorbing.
	if f.Step(s, "close") != ErrorState {
		t.Fatal("error must absorb")
	}
	// new without close: Open is not accept.
	s = f.Step(f.Init, "new")
	if f.IsAccept(s) {
		t.Fatal("Open must not be accepting (leak)")
	}
}

func TestLockChecker(t *testing.T) {
	f := BuiltinLock()
	s := f.Step(f.Init, "new")
	s = f.Step(s, "lock")
	s2 := f.Step(s, "unlock")
	if !f.IsAccept(s2) {
		t.Fatal("lock-unlock should be accepted")
	}
	// unlock before lock (mis-order, the HDFS bug of §5.1).
	if f.Step(f.Step(f.Init, "new"), "unlock") != ErrorState {
		t.Fatal("unlock-before-lock must be an error")
	}
	// double lock.
	if f.Step(s, "lock") != ErrorState {
		t.Fatal("double lock must be an error")
	}
}

func TestExceptionChecker(t *testing.T) {
	f := BuiltinException()
	s := f.Step(f.Init, "new")
	s = f.Step(s, "throw")
	if f.IsAccept(s) {
		t.Fatal("Thrown is not acceptable at exit")
	}
	s = f.Step(s, "catch")
	if !f.IsAccept(s) {
		t.Fatal("Caught is acceptable")
	}
}

func TestSocketChecker(t *testing.T) {
	f := BuiltinSocket()
	s := f.Init
	for _, ev := range []string{"new", "bind", "configureBlocking", "accept", "close"} {
		s = f.Step(s, ev)
	}
	if !f.IsAccept(s) {
		t.Fatalf("socket lifecycle ends in %s", f.States[s])
	}
	// Leak: never closed.
	s = f.Step(f.Step(f.Init, "new"), "bind")
	if f.IsAccept(s) {
		t.Fatal("Bound at exit is a leak")
	}
}

func TestRelComposeMatchesStep(t *testing.T) {
	f := BuiltinIO()
	events := []string{"new", "write", "close", "flush"}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(6)
		seq := make([]string, n)
		for i := range seq {
			seq[i] = events[rng.Intn(len(events))]
		}
		r := Identity()
		s := f.Init
		for _, ev := range seq {
			r = Compose(r, EventRel(f, ev))
			s = f.Step(s, ev)
		}
		if r.Apply(f.Init) != 1<<uint(s) {
			t.Fatalf("relation disagrees with step on %v: rel=%b step=%d", seq, r.Apply(f.Init), s)
		}
	}
}

func TestRelComposeAssociative(t *testing.T) {
	f := BuiltinSocket()
	evs := f.Events()
	cfg := &quick.Config{MaxCount: 200}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := EventRel(f, evs[rng.Intn(len(evs))])
		b := EventRel(f, evs[rng.Intn(len(evs))])
		c := EventRel(f, evs[rng.Intn(len(evs))])
		return Compose(Compose(a, b), c) == Compose(a, Compose(b, c))
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestRelIdentityLaws(t *testing.T) {
	f := BuiltinLock()
	id := Identity()
	for _, ev := range f.Events() {
		r := EventRel(f, ev)
		if Compose(id, r) != r || Compose(r, id) != r {
			t.Fatalf("identity law broken for %s", ev)
		}
	}
	if !id.IsIdentity() {
		t.Fatal("identity must self-report")
	}
}

func TestRelPackRoundTrip(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var r Rel
		for i := range r {
			r[i] = uint16(rng.Intn(1 << 16))
		}
		buf := r.Pack(nil)
		if len(buf) != PackedRelSize {
			return false
		}
		got, rest, err := UnpackRel(buf)
		return err == nil && got == r && len(rest) == 0
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUnpackRelShortInput(t *testing.T) {
	for _, n := range []int{0, 1, PackedRelSize - 1} {
		if _, _, err := UnpackRel(make([]byte, n)); err == nil {
			t.Errorf("UnpackRel accepted %d bytes", n)
		}
	}
}

func TestParseSpec(t *testing.T) {
	src := `
# the paper's Fig. 3a property
fsm io for FileWriter {
  states Init Open Close;
  init Init;
  accept Init Close;
  new:   Init -> Open;
  write: Open -> Open;
  close: Open -> Close;
}
fsm lock for Lock {
  states Unheld Held;
  init Unheld;
  accept Unheld;
  lock:   Unheld -> Held;
  unlock: Held -> Unheld;
}`
	fs, err := ParseSpec(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 2 {
		t.Fatalf("parsed %d fsms", len(fs))
	}
	io := fs[0]
	if io.Type != "FileWriter" || io.Name != "io" {
		t.Fatalf("fsm header: %+v", io)
	}
	s := io.Step(io.Init, "new")
	if io.States[s] != "Open" {
		t.Fatalf("step: %s", io.States[s])
	}
	if io.Step(s, "bogus") != ErrorState {
		t.Fatal("undefined event must hit Error")
	}
}

func TestParseSpecErrors(t *testing.T) {
	cases := []string{
		`fsm x { states A; }`,                                     // missing "for"
		`fsm x for T { init A; }`,                                 // init before states
		`fsm x for T { states A; init B; }`,                       // unknown state
		`fsm x for T { states A; accept B; }`,                     // unknown accept
		`fsm x for T { states A; e: A -> B; }`,                    // unknown target
		`fsm x for T { states A;`,                                 // unterminated
		`}`,                                                       // stray brace
		`fsm x for T { states A; e: A -> A; e: A -> A; }`,         // duplicate
		`fsm x for T { states A B C D E F G H I J K L M N O P; }`, // too many
	}
	for _, src := range cases {
		if _, err := ParseSpec(src); err == nil {
			t.Errorf("no error for %q", src)
		}
	}
}

func TestFSMString(t *testing.T) {
	f := BuiltinIO()
	s := f.String()
	if s == "" {
		t.Fatal("empty render")
	}
}

func TestParseSpecWrapsErrSpec(t *testing.T) {
	bad := []string{
		`fsm x for T { states A; init B; }`,
		`fsm x for T { states A;`,
		`init A;`,
	}
	for _, src := range bad {
		_, err := ParseSpec(src)
		if err == nil {
			t.Fatalf("no error for %q", src)
		}
		if !errors.Is(err, ErrSpec) {
			t.Errorf("error for %q is not ErrSpec: %v", src, err)
		}
	}
}

func TestBuiltinsConstructCleanly(t *testing.T) {
	if len(Builtins()) != 4 {
		t.Fatal("want four builtin checkers")
	}
	if err := BuiltinsErr(); err != nil {
		t.Fatalf("builtin construction failed: %v", err)
	}
}

// TestFingerprint: the fingerprint is a function of the definition — the
// same FSM built with its transitions in another order, or parsed from its
// spec, shares it — and every edit to the body under the same name, as well
// as a rename, changes it.
func TestFingerprint(t *testing.T) {
	base := BuiltinIO()
	reordered, _ := New("io", "FileWriter", "Init", "Open", "Close")
	_ = reordered.SetAccept("Close", "Init")
	for _, tr := range [][3]string{
		{"Close", "close", "Close"}, {"Open", "close", "Close"}, {"Open", "flush", "Open"},
		{"Open", "write", "Open"}, {"Init", "new", "Open"},
	} {
		if err := reordered.AddTransition(tr[0], tr[1], tr[2]); err != nil {
			t.Fatal(err)
		}
	}
	parsed, err := ParseSpec(`
fsm io for FileWriter {
  states Init Open Close;
  init Init;
  accept Init Close;
  new: Init -> Open;
  write: Open -> Open;
  flush: Open -> Open;
  close: Open -> Close;
  close: Close -> Close;
}`)
	if err != nil {
		t.Fatal(err)
	}
	for name, f := range map[string]*FSM{"reordered": reordered, "parsed": parsed[0]} {
		if f.Fingerprint() != base.Fingerprint() {
			t.Errorf("%s: the same definition has another fingerprint", name)
		}
	}
	edits := map[string]func(f *FSM) error{
		"accept set": func(f *FSM) error { return f.SetAccept("Init") },
		"init":       func(f *FSM) error { return f.SetInit("Open") },
		"transition": func(f *FSM) error { return f.AddTransition("Close", "flush", "Close") },
		"safe event": func(f *FSM) error { f.MarkConcurrencySafe("write"); return nil },
		"type":       func(f *FSM) error { f.Type = "Writer"; return nil },
		"name":       func(f *FSM) error { f.Name = "io2"; return nil },
	}
	for name, edit := range edits {
		f := BuiltinIO()
		if err := edit(f); err != nil {
			t.Fatal(err)
		}
		if f.Fingerprint() == base.Fingerprint() {
			t.Errorf("edited %s: fingerprint unchanged", name)
		}
	}
	other, _ := New("io", "FileWriter", "Init", "Closed", "Open")
	if other.Fingerprint() == base.Fingerprint() {
		t.Error("edited states: fingerprint unchanged")
	}
}
