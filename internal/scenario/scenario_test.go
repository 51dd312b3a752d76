package scenario

import (
	"encoding/json"
	"errors"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestNormalizedDefaults(t *testing.T) {
	n := Spec{Protocol: "ML-PoS"}.Normalized()
	if n.Protocol != "mlpos" {
		t.Errorf("protocol = %q", n.Protocol)
	}
	if n.W != 0.01 || n.Blocks != 5000 || n.Trials != 1000 || n.Seed != 1 {
		t.Errorf("paper defaults not applied: %+v", n)
	}
	if len(n.Stakes) != 2 || n.Stakes[0] != 0.2 || n.Stakes[1] != 0.8 {
		t.Errorf("stakes = %v, want leader-and-pack [0.2 0.8]", n.Stakes)
	}
	if len(n.Checkpoints) != 1 || n.Checkpoints[0] != 5000 {
		t.Errorf("checkpoints = %v, want final only", n.Checkpoints)
	}
	if n.Eps != 0.1 || n.Delta != 0.1 {
		t.Errorf("(eps, delta) = (%v, %v)", n.Eps, n.Delta)
	}
	// Protocol-conditional defaults.
	c := Spec{Protocol: "cpos"}.Normalized()
	if c.V != 0.1 || c.Shards != 32 {
		t.Errorf("cpos defaults: v=%v P=%d", c.V, c.Shards)
	}
	h := Spec{Protocol: "hybrid"}.Normalized()
	if h.Alpha != 0.5 {
		t.Errorf("hybrid alpha = %v", h.Alpha)
	}
}

func TestCanonicalProtocolConcurrent(t *testing.T) {
	// One package-level Replacer serves every caller at once.
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				for _, name := range []string{"ML-PoS", "ml_pos", "Ml Pos", "mlpos"} {
					if got := CanonicalProtocol(name); got != "mlpos" {
						t.Errorf("CanonicalProtocol(%q) = %q, want mlpos", name, got)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

func TestJSONRoundTrip(t *testing.T) {
	orig := Spec{
		Name: "mlpos sweep point", Protocol: "mlpos", W: 0.005,
		Stakes: []float64{0.3, 0.5, 0.2}, Miner: 2,
		Blocks: 2000, Trials: 250, Seed: 99,
		Checkpoints: []int{500, 1000, 2000}, WithholdEvery: 100,
		Eps: 0.05, Delta: 0.2,
	}
	data, err := json.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	again, err := json.Marshal(back)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(again) {
		t.Errorf("round trip changed encoding:\n%s\n%s", data, again)
	}
	if back.MustHash() != orig.MustHash() {
		t.Error("round trip changed hash")
	}
	// Unknown fields are rejected.
	if _, err := Decode([]byte(`{"protocol":"pow","blokcs":100}`)); !errors.Is(err, ErrSpec) {
		t.Errorf("typo field err = %v, want ErrSpec", err)
	}
}

func TestValidateRejections(t *testing.T) {
	bad := []Spec{
		{Protocol: "dogecoin"},
		{Protocol: "pow", W: -1},
		{Protocol: "pow", W: math.NaN()},
		{Protocol: "pow", Stakes: []float64{1}},
		{Protocol: "pow", Stakes: []float64{0.5, -0.5}},
		{Protocol: "pow", Stakes: []float64{0.5, math.Inf(1)}},
		{Protocol: "pow", Miner: 5},
		{Protocol: "pow", Blocks: -10},
		{Protocol: "pow", Trials: -1},
		{Protocol: "pow", Blocks: 100, Checkpoints: []int{50, 50}},
		{Protocol: "pow", Blocks: 100, Checkpoints: []int{200}},
		{Protocol: "pow", WithholdEvery: -2},
		{Protocol: "pow", Eps: -0.1},
		{Protocol: "pow", Delta: 1.5},
		{Protocol: "cpos", Shards: -1},
		{Protocol: "hybrid", Alpha: 2},
		{Protocol: "algorand", V: -0.1},
	}
	for i, s := range bad {
		if err := s.Validate(); !errors.Is(err, ErrSpec) {
			t.Errorf("case %d (%+v): err = %v, want ErrSpec", i, s, err)
		}
	}
	good := []Spec{
		{Protocol: "pow"},
		{Protocol: "C-PoS"},
		{Protocol: "slpos", Stake: 0.4, Miners: 5},
		{Protocol: "hybrid", Alpha: 0.9, WithholdEvery: 50},
		{Protocol: "algorand"},
	}
	for i, s := range good {
		if err := s.Validate(); err != nil {
			t.Errorf("good case %d: %v", i, err)
		}
	}
}

func TestBuildConstructsEveryProtocol(t *testing.T) {
	for _, name := range ProtocolNames() {
		p, err := Spec{Protocol: name}.Build()
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if p.Name() == "" {
			t.Errorf("%s: empty protocol name", name)
		}
	}
	if _, err := (Spec{Protocol: "nope"}).Build(); !errors.Is(err, ErrSpec) {
		t.Errorf("unknown protocol err = %v", err)
	}
}

func TestHashDeterminismAndSensitivity(t *testing.T) {
	s := Spec{Protocol: "mlpos", W: 0.01, Stake: 0.2, Blocks: 1000, Trials: 100}
	h1 := s.MustHash()
	for i := 0; i < 50; i++ {
		if s.MustHash() != h1 {
			t.Fatal("hash not stable across calls")
		}
	}
	// Sugar form and explicit form hash identically.
	explicit := s
	explicit.Stake, explicit.Miners = 0, 0
	explicit.Stakes = []float64{0.2, 0.8}
	if explicit.MustHash() != h1 {
		t.Error("explicit stakes should hash like the sugar form")
	}
	// JSON field ordering in the source document is irrelevant.
	a, err := Decode([]byte(`{"protocol":"mlpos","w":0.01,"stake":0.2,"blocks":1000,"trials":100}`))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Decode([]byte(`{"trials":100,"blocks":1000,"stake":0.2,"w":0.01,"protocol":"mlpos"}`))
	if err != nil {
		t.Fatal(err)
	}
	if a.MustHash() != b.MustHash() || a.MustHash() != h1 {
		t.Error("JSON key order changed the hash")
	}
	// Names don't affect the hash; parameters do.
	named := s
	named.Name = "label"
	if named.MustHash() != h1 {
		t.Error("name should not affect the hash")
	}
	for _, mutate := range []func(*Spec){
		func(x *Spec) { x.W = 0.02 },
		func(x *Spec) { x.Protocol = "pow" },
		func(x *Spec) { x.Stake = 0.3 },
		func(x *Spec) { x.Blocks = 2000 },
		func(x *Spec) { x.Trials = 101 },
		func(x *Spec) { x.Seed = 7 },
		func(x *Spec) { x.WithholdEvery = 10 },
		func(x *Spec) { x.Eps = 0.2 },
	} {
		m := s
		mutate(&m)
		if m.MustHash() == h1 {
			t.Errorf("mutation %+v did not change the hash", m)
		}
	}
}

func TestHashIgnoresProtocolIrrelevantParams(t *testing.T) {
	// Parameters a protocol does not consume must not split the cache:
	// a PoW spec with a stray v (e.g. from a grid that sweeps V for
	// C-PoS) describes the same computation as one without.
	pow := Spec{Protocol: "pow", W: 0.01, Stake: 0.2, Blocks: 500, Trials: 50}
	powV := pow
	powV.V = 0.2
	powV.Shards = 64
	powV.Alpha = 0.9
	if pow.MustHash() != powV.MustHash() {
		t.Error("irrelevant params changed the PoW hash")
	}
	if DeriveSeed(1, pow) != DeriveSeed(1, powV) {
		t.Error("irrelevant params changed the derived seed")
	}
	alg := Spec{Protocol: "algorand", Stake: 0.2, Blocks: 500, Trials: 50}
	algW := alg
	algW.W = 0.05
	if alg.MustHash() != algW.MustHash() {
		t.Error("w changed the Algorand hash despite being unused")
	}
	// Consumed parameters still matter.
	cpos := Spec{Protocol: "cpos", Stake: 0.2, Blocks: 500, Trials: 50}
	cposV := cpos
	cposV.V = 0.2
	if cpos.MustHash() == cposV.MustHash() {
		t.Error("v should change the C-PoS hash")
	}
}

func TestDeriveSeedIsContentStable(t *testing.T) {
	s := Spec{Protocol: "pow", Stake: 0.2, Blocks: 500, Trials: 50}
	a := DeriveSeed(42, s)
	if a != DeriveSeed(42, s) {
		t.Error("derived seed not deterministic")
	}
	// Seed field itself is excluded, so re-deriving is idempotent.
	withSeed := s
	withSeed.Seed = a
	if DeriveSeed(42, withSeed) != a {
		t.Error("derivation should ignore the spec's own seed")
	}
	// Different content or base gives a different stream.
	other := s
	other.Stake = 0.3
	if DeriveSeed(42, other) == a {
		t.Error("different content should derive a different seed")
	}
	if DeriveSeed(43, s) == a {
		t.Error("different base should derive a different seed")
	}
}

func TestGridExpansionCardinality(t *testing.T) {
	g := Grid{
		Base:      Spec{Blocks: 400, Trials: 40},
		Protocols: []string{"pow", "mlpos", "slpos", "cpos"},
		W:         []float64{0.001, 0.01},
		Stake:     []float64{0.1, 0.2, 0.3},
	}
	if got, want := g.Size(), 24; got != want {
		t.Fatalf("Size = %d, want %d", got, want)
	}
	specs, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 24 {
		t.Fatalf("expanded %d scenarios, want 24", len(specs))
	}
	// All distinct, all named, all carrying derived seeds.
	seen := map[string]bool{}
	for _, s := range specs {
		h := s.MustHash()
		if seen[h] {
			t.Errorf("duplicate scenario %s", s.Name)
		}
		seen[h] = true
		if s.Name == "" || s.Seed == 0 {
			t.Errorf("scenario missing name or seed: %+v", s)
		}
		if s.Blocks != 400 || s.Trials != 40 {
			t.Errorf("base fields lost: %+v", s)
		}
	}
	// Expansion is deterministic, including seeds.
	again, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	for i := range specs {
		if specs[i].MustHash() != again[i].MustHash() || specs[i].Seed != again[i].Seed {
			t.Fatalf("expansion not deterministic at %d", i)
		}
	}
	// A scenario shared by two different grids hashes identically, which
	// is what makes overlapping sweeps cache-compatible.
	sub := Grid{
		Base:      g.Base,
		Protocols: []string{"mlpos"},
		W:         []float64{0.01},
		Stake:     []float64{0.2, 0.3},
	}
	subSpecs, err := sub.Expand()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range subSpecs {
		if !seen[s.MustHash()] {
			t.Errorf("overlapping grid produced an unseen hash for %s", s.Name)
		}
	}
}

func TestGridCellNamesDistinguishSweptAxes(t *testing.T) {
	g := Grid{
		Base:      Spec{Protocol: "pow", Trials: 20},
		Blocks:    []int{500, 1000},
		Miners:    []int{2, 5},
		Protocols: []string{"pow"},
	}
	specs, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, s := range specs {
		if names[s.Name] {
			t.Errorf("duplicate cell name %q", s.Name)
		}
		names[s.Name] = true
	}
	if len(names) != 4 {
		t.Errorf("got %d distinct names, want 4: %v", len(names), names)
	}
}

func TestGridExpandValidates(t *testing.T) {
	g := Grid{Protocols: []string{"pow"}, W: []float64{-1}}
	if _, err := g.Expand(); !errors.Is(err, ErrSpec) {
		t.Errorf("err = %v, want ErrSpec", err)
	}
}

func TestGridZeroValueExpandsToBase(t *testing.T) {
	g := Grid{Base: Spec{Protocol: "pow", Stake: 0.25}}
	specs, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 1 {
		t.Fatalf("got %d scenarios", len(specs))
	}
	if got := specs[0].TrackedShare(); math.Abs(got-0.25) > 1e-15 {
		t.Errorf("tracked share = %v", got)
	}
}

func TestSpecString(t *testing.T) {
	s := Spec{Protocol: "cpos", WithholdEvery: 10}
	str := s.String()
	for _, want := range []string{"cpos", "w=0.01", "v=0.1", "P=32", "withhold=10"} {
		if !strings.Contains(str, want) {
			t.Errorf("String() = %q missing %q", str, want)
		}
	}
}
