package hwsim

import (
	"bufio"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"

	"nnlqp/internal/models"
)

// TestGoldenKernels holds Kernelize and Execute to what the name-keyed
// implementation produced: the same partition, kernel order, labels and
// external inputs, and bit-identical latencies — measured latencies are
// persisted, so an index-driven fusion pass must not move them.
func TestGoldenKernels(t *testing.T) {
	f, err := os.Open("testdata/golden_kernels.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.SplitN(line, " ", 4)
		want[strings.Join(fields[:3], " ")] = fields[3]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	p, err := PlatformByName(DatasetPlatform)
	if err != nil {
		t.Fatal(err)
	}
	fams := append(append([]string{}, models.Families...), models.FamilyDetection, models.FamilyOFA)
	for fi, fam := range fams {
		seed := int64(2000 + fi)
		rng := rand.New(rand.NewSource(seed))
		for v := 0; v < 8; v++ {
			g, err := models.Variant(fam, rng, 1)
			if err != nil {
				t.Fatal(err)
			}
			ks, err := Kernelize(g)
			if err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			for _, k := range ks {
				var names []string
				for _, n := range k.Nodes {
					names = append(names, n.Name)
				}
				fmt.Fprintf(h, "%s|%s|%s|%s\n", k.Family, k.Output, strings.Join(k.Inputs, ","), strings.Join(names, ","))
			}
			lat := uint64(0)
			if rep, err := p.Execute(g); err == nil {
				lat = math.Float64bits(rep.LatencySec)
			}
			id := fmt.Sprintf("%s %d %d", fam, seed, v)
			if got := fmt.Sprintf("%d %016x %016x", len(ks), h.Sum64(), lat); got != want[id] {
				t.Errorf("%s: got %s, golden %s", id, got, want[id])
			}
			delete(want, id)
		}
	}
	if len(want) != 0 {
		t.Fatalf("%d golden lines were not checked", len(want))
	}
}
