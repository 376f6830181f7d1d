package main

import (
	"bytes"
	"os/exec"
	"path/filepath"
	"testing"

	"repro/internal/wire"
)

func TestPercentileNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // reversed: percentile must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{1000, 0.99, 990, true}, // ranks 991..1000 lie beyond
		{999, 0.99, 990, false}, // only 9 beyond
		{1100, 0.99, 1089, true},
		{21, 0.5, 11, true},
		{20, 0.5, 10, true},
		{19, 0.5, 10, false},
		{1, 0.5, 1, false},
	} {
		got, ok := percentile(seq(tc.n), tc.p)
		if got != tc.want || ok != tc.ok {
			t.Errorf("percentile(n=%d, p=%v) = %v, %v; want %v, %v", tc.n, tc.p, got, ok, tc.want, tc.ok)
		}
	}
}

func TestZipfStable(t *testing.T) {
	z := newZipf(repeatItems, repeatZipfS)
	draws := func(seed int64) []int {
		r := streamRand(seed, "repeat-draws", 0)
		out := make([]int, 20000)
		for i := range out {
			out[i] = z.draw(r)
		}
		return out
	}
	a, b := draws(7), draws(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d differs for the same seed: %d vs %d", i, a[i], b[i])
		}
	}
	// A pinned prefix guards the sampler and the stream derivation
	// against silent changes that would alter every run's inputs.
	want := []int{6, 3, 6, 25, 4062, 25, 11, 0}
	for i, w := range want {
		if a[i] != w {
			t.Fatalf("draws(7) prefix = %v, want %v", a[:len(want)], want)
		}
	}
	counts := make([]int, repeatItems)
	for _, k := range a {
		counts[k]++
	}
	if !(counts[0] > counts[1] && counts[1] > counts[9] && counts[9] > counts[999]) {
		t.Errorf("Zipf counts not decreasing with rank: %d %d %d %d", counts[0], counts[1], counts[9], counts[999])
	}
	if c := draws(8); equalInts(a, c) {
		t.Error("different seeds gave the same draws")
	}
}

func equalInts(a, b []int) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return len(a) == len(b)
}

func TestSameSeedSameRequests(t *testing.T) {
	render := func(seed int64) [][]byte {
		var out [][]byte
		items, err := genItems(nil, 24, seed, "miss")
		if err != nil {
			t.Fatal(err)
		}
		for _, it := range items {
			out = append(out, it.body)
		}
		rep, err := genItems(nil, 16, seed, "repeat")
		if err != nil {
			t.Fatal(err)
		}
		for _, it := range rep {
			out = append(out, it.body, reencode(it.body))
		}
		f := newRepeatFeed(seed, make([]*solveItem, repeatItems), 2, 64)
		for _, d := range f.draws {
			for _, i := range d {
				out = append(out, []byte{byte(i >> 24), byte(i >> 16), byte(i >> 8), byte(i)})
			}
		}
		src, err := genSession(seed, len(sessionSpecs)-1)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, src.inst)
		g := newChurnGen(seed, len(sessionSpecs)-1, src)
		for k := 0; k < 200; k++ {
			out = append(out, appendOps(nil, g.frame()))
		}
		return out
	}
	a, b, c := render(3), render(3), render(4)
	if len(a) != len(b) {
		t.Fatalf("stream lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("request %d differs for the same seed", i)
		}
	}
	if bytes.Equal(bytes.Join(a, nil), bytes.Join(c, nil)) {
		t.Error("different seeds gave the same requests")
	}
}

func TestDeltaOpsRoundTrip(t *testing.T) {
	src, err := genSession(5, 0)
	if err != nil {
		t.Fatal(err)
	}
	g := newChurnGen(5, 0, src)
	for k := 0; k < 500; k++ {
		ops := g.frame()
		b := appendOps(nil, ops)
		got, err := decodeOps(wire.NewDecoder(b))
		if err != nil {
			t.Fatalf("frame %d: %v", k, err)
		}
		if !bytes.Equal(appendOps(nil, got), b) {
			t.Fatalf("frame %d does not round-trip", k)
		}
	}
}

// TestSmoke runs every workload for about a second against a ccsd
// built from this checkout, and requires every answer to check out.
// Guards that need a full run's sample sizes are not asserted here.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds ccsd and runs all four workloads")
	}
	bin := filepath.Join(t.TempDir(), "ccsd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/ccsd")
	cmd.Dir = ".."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build ccsd: %v\n%s", err, out)
	}
	for _, w := range []string{"solve-miss", "solve-repeat", "session-churn", "field-rounds"} {
		t.Run(w, func(t *testing.T) {
			o := &options{workload: w, seed: 1, seconds: 1, trace: true, ccsd: bin, root: ".."}
			res, err := workloads[w](o)
			if err != nil {
				t.Fatal(err)
			}
			if res.attempted == 0 || res.failed != 0 {
				t.Fatalf("attempted %d, failed %d (%v)", res.attempted, res.failed, res.detail["first_failure"])
			}
			for _, d := range endToEnd {
				if v, ok := res.e2e[d.name]; !ok || !(v > 0) {
					t.Errorf("end-to-end %s = %v, want > 0", d.name, v)
				}
			}
			if res.layer["replay.coverage_pct"] < 95 {
				t.Errorf("spans cover %.1f%% of the replay", res.layer["replay.coverage_pct"])
			}
		})
	}
}
