package feats

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"

	"nnlqp/internal/models"
)

// TestGoldenFeatures holds Extract to what the name-keyed implementation
// produced: row order, every feature bit, and the neighbour order the GNN's
// mean aggregation sums in. A trained predictor's answers depend on all
// three.
func TestGoldenFeatures(t *testing.T) {
	f, err := os.Open("testdata/golden_feats.txt")
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
	fams := append(append([]string{}, models.Families...), models.FamilyDetection, models.FamilyOFA)
	for fi, fam := range fams {
		seed := int64(3000 + fi)
		rng := rand.New(rand.NewSource(seed))
		for v := 0; v < 8; v++ {
			g, err := models.Variant(fam, rng, 2)
			if err != nil {
				t.Fatal(err)
			}
			gf := extract(t, g)
			h := fnv.New64a()
			h.Write([]byte(strings.Join(gf.NodeNames, ",")))
			var b [8]byte
			put := func(u uint64) { binary.LittleEndian.PutUint64(b[:], u); h.Write(b[:]) }
			for _, x := range gf.X.Data {
				put(math.Float64bits(x))
			}
			for _, x := range gf.Static {
				put(math.Float64bits(x))
			}
			for _, row := range gf.Adj {
				for _, j := range row {
					put(uint64(j))
				}
				put(^uint64(0))
			}
			id := fmt.Sprintf("%s %d %d", fam, seed, v)
			if got := fmt.Sprintf("%d %016x", gf.NumNodes(), h.Sum64()); got != want[id] {
				t.Errorf("%s: got %s, golden %s", id, got, want[id])
			}
			delete(want, id)
		}
	}
	if len(want) != 0 {
		t.Fatalf("%d golden lines were not checked", len(want))
	}
}
