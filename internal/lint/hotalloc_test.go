package lint

import (
	"strings"
	"testing"
)

func hotallocMessages(t *testing.T, src string) (active, suppressed []string) {
	t.Helper()
	fs := runFixture(t, HotallocAnalyzer(), "repro/internal/fix", src)
	for _, f := range fs {
		if f.Severity != SeverityError {
			t.Errorf("hotalloc finding %q severity %v, want error", f.Message, f.Severity)
		}
		if f.Suppressed {
			suppressed = append(suppressed, f.Message)
		} else {
			active = append(active, f.Message)
		}
	}
	return active, suppressed
}

// countContaining tallies messages mentioning every given fragment.
func countContaining(msgs []string, frags ...string) int {
	n := 0
	for _, m := range msgs {
		all := true
		for _, frag := range frags {
			if !strings.Contains(m, frag) {
				all = false
				break
			}
		}
		if all {
			n++
		}
	}
	return n
}

// TestHotallocBannedConstructs seeds one instance of every banned
// construct class in a single hot root and checks each is caught.
func TestHotallocBannedConstructs(t *testing.T) {
	src := `package fix

import "fmt"

type obs interface{ note(int) }

//nebula:hotpath
func Hot(xs []float64, o obs, name string) float64 {
	buf := make([]float64, 8)
	p := new(int)
	xs = append(xs, 1)
	lit := []float64{1, 2}
	m := map[string]int{"a": 1}
	q := &obsImpl{}
	f := func() {}
	f()
	o.note(len(lit))
	var boxed interface{} = 42
	_ = boxed
	s := fmt.Sprintf("%s", name)
	msg := ""
	for i := range xs {
		msg += name
		_ = name + s
		_ = i
	}
	_ = buf
	_ = p
	_ = m
	_ = q
	_ = msg
	return xs[0]
}

type obsImpl struct{}

func (*obsImpl) note(int) {}
`
	active, _ := hotallocMessages(t, src)
	checks := []struct {
		frag string
		want int
	}{
		{"make allocates", 1},
		{"new allocates", 1},
		{"append may grow", 1},
		{"slice literal allocates", 1},
		{"map literal allocates", 1},
		{"&composite literal escapes", 1},
		{"closure allocates", 1},
		{"fmt.Sprintf allocates", 1},
		{"string concatenation in a loop", 2},
	}
	for _, c := range checks {
		if got := countContaining(active, c.frag); got != c.want {
			t.Errorf("%q: %d findings, want %d\nall: %v", c.frag, got, c.want, active)
		}
	}
	// var boxed interface{} = 42 is a declaration, not a call; boxing
	// detection covers call arguments and conversions (tested below).
	for _, m := range active {
		if !strings.Contains(m, "in hot function repro/internal/fix.Hot (declared //nebula:hotpath)") {
			t.Errorf("finding lacks root provenance: %q", m)
		}
	}
}

func TestHotallocBoxing(t *testing.T) {
	src := `package fix

func sink(v interface{})        {}
func sinks(vs ...interface{})   {}
func typed(n int, v interface{}) {}

type iface interface{ m() }
type impl struct{}

func (impl) m() {}

//nebula:hotpath
func Hot(pre []interface{}) {
	sink(3)
	sinks(1, 2)
	sinks(pre...)
	typed(1, impl{})
	var i iface = iface(impl{})
	_ = i
}
`
	active, _ := hotallocMessages(t, src)
	if got := countContaining(active, "argument boxes a concrete value"); got != 4 {
		t.Errorf("boxing findings = %d, want 4 (sink, sinks x2, typed)\nall: %v", got, active)
	}
	if got := countContaining(active, "conversion boxes a concrete value"); got != 1 {
		t.Errorf("conversion findings = %d, want 1\nall: %v", got, active)
	}
	// The ... spread passes an existing slice (sinks(pre...)): counted
	// above — 4 argument findings means the spread slot stayed clean.
}

// TestHotallocColdAndExcused verifies the three steady-state idioms:
// error tails, panics and //nebula:coldpath are skipped; growth guards
// and recycled appends are excused.
func TestHotallocColdAndExcused(t *testing.T) {
	src := `package fix

import (
	"errors"
	"fmt"
)

func check(n int) (int, error) {
	if n < 0 {
		return 0, errors.New("negative")
	}
	return n, nil
}

//nebula:hotpath
func Hot(dst, xs []float64, n int) ([]float64, error) {
	if n < 0 {
		return nil, fmt.Errorf("hot: bad n %d", n)
	}
	if _, err := check(n); err != nil {
		return nil, fmt.Errorf("hot: %w", err)
	}
	if len(dst) < n {
		dst = make([]float64, n)
	}
	if dst == nil {
		dst = []float64{0}
	}
	dst = append(dst[:0], xs...)
	dst = append(dst, 1)
	scratch := xs
	scratch = scratch[:0]
	scratch = append(scratch, 2)
	if n > 1e9 {
		panic(fmt.Sprintf("hot: absurd n %d", n))
	}
	//nebula:coldpath warm-up only
	trace := make([]float64, n)
	_ = trace
	return dst, nil
}
`
	active, _ := hotallocMessages(t, src)
	if len(active) != 0 {
		t.Errorf("steady-state idioms flagged: %v", active)
	}
}

// TestHotallocTransitive checks closure traversal, provenance labels,
// cold call sites not pulling callees, and that a growth guard excuses
// allocations but not the calls made under it.
func TestHotallocTransitive(t *testing.T) {
	src := `package fix

import "errors"

func leafAlloc() []float64 {
	return make([]float64, 4)
}

func coldOnly() error {
	_ = make([]float64, 1)
	return errors.New("cold")
}

func guarded() {
	_ = make([]int, 2)
}

//nebula:hotpath
func Hot(xs []float64) ([]float64, error) {
	if len(xs) == 0 {
		guarded()
		return nil, coldOnly()
	}
	return leafAlloc(), nil
}
`
	active, _ := hotallocMessages(t, src)
	if got := countContaining(active, "leafAlloc", "hot via root repro/internal/fix.Hot"); got != 1 {
		t.Errorf("leafAlloc findings = %d, want 1 with provenance\nall: %v", got, active)
	}
	// coldOnly is called only inside an error-tail return: not pulled.
	if got := countContaining(active, "coldOnly"); got != 0 {
		t.Errorf("coldOnly pulled into hot closure: %v", active)
	}
	// guarded is called under a len() guard: the guard excuses only
	// allocation constructs, the callee is still hot.
	if got := countContaining(active, "guarded"); got != 1 {
		t.Errorf("guarded findings = %d, want 1 (guards excuse allocs, not calls)\nall: %v", got, active)
	}
}

func TestHotallocSuppression(t *testing.T) {
	src := `package fix

//nebula:hotpath
func Hot(n int) []float64 {
	//nebula:lint-ignore hotalloc one-time setup measured off the loop
	return make([]float64, n)
}
`
	active, suppressed := hotallocMessages(t, src)
	if len(active) != 0 {
		t.Errorf("active = %v, want none", active)
	}
	if len(suppressed) != 1 || !strings.Contains(suppressed[0], "make allocates") {
		t.Errorf("suppressed = %v, want one make finding", suppressed)
	}
}

func TestHotallocNoRootsNoFindings(t *testing.T) {
	src := `package fix

func Cold() []float64 {
	return make([]float64, 1024)
}
`
	active, suppressed := hotallocMessages(t, src)
	if len(active)+len(suppressed) != 0 {
		t.Errorf("findings without any //nebula:hotpath root: %v %v", active, suppressed)
	}
}

// TestHotallocVariadicEscape reproduces the old tensor.At/Set pattern:
// the variadic index slice reaches fmt.Sprintf in a bounds-check panic
// of a helper, so escape analysis moves every caller's implicit slice
// to the heap even though the panic is a cold exit. Spread calls and
// helpers that format a copy stay clean.
func TestHotallocVariadicEscape(t *testing.T) {
	src := `package fix

import (
	"errors"
	"fmt"
)

type T struct {
	shape []int
	data  []float64
}

func (t *T) At(idx ...int) float64 { return t.data[t.offset(idx)] }

func (t *T) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("index %v does not match shape %v", idx, t.shape))
	}
	off := 0
	for i, x := range idx {
		off = off*t.shape[i] + x
	}
	return off
}

func (t *T) AtCopy(idx ...int) float64 { return t.data[t.offsetCopy(idx)] }

func (t *T) offsetCopy(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("index %v does not match shape %v", append([]int(nil), idx...), t.shape))
	}
	return idx[0]
}

func check(xs ...int) error {
	if len(xs) > 8 {
		return fmt.Errorf("too many: %v", xs[1:])
	}
	if len(xs) == 0 {
		return errors.New("empty")
	}
	return nil
}

func sum(xs ...int) int {
	s := 0
	for _, x := range xs {
		s += x
	}
	return s
}

//nebula:hotpath
func Hot(t *T, idx []int, i, j int) float64 {
	v := t.At(i, j)
	v += t.At(idx...)
	v += t.AtCopy(i, j)
	v += float64(sum(i, j))
	if check(i, j) != nil {
		v = 0
	}
	return v
}
`
	active, _ := hotallocMessages(t, src)
	if got := countContaining(active, "implicit variadic slice escapes"); got != 2 {
		t.Errorf("variadic-escape findings = %d, want 2 (t.At(i, j), check(i, j))\nall: %v", got, active)
	}
	if got := countContaining(active, "fix.T.At reaches fmt.Sprintf"); got != 1 {
		t.Errorf("t.At finding should name the Sprintf it reaches through offset\nall: %v", active)
	}
	if got := countContaining(active, "fix.check reaches fmt.Errorf"); got != 1 {
		t.Errorf("check finding should name the Errorf its cold exit reaches\nall: %v", active)
	}
	if len(active) != 2 {
		t.Errorf("unexpected findings: %v", active)
	}
}
