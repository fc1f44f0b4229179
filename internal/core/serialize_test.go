package core

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"

	"nnlqp/internal/hwsim"
	"nnlqp/internal/models"
	"nnlqp/internal/onnx"
)

// TestSaveIsDeterministic: one predictor always encodes to the same bytes.
// gob writes maps in random order, so this needs more than one head to
// catch per-platform state kept in a map.
func TestSaveIsDeterministic(t *testing.T) {
	cfg := quickConfig()
	cfg.Hidden, cfg.HeadHidden, cfg.Epochs = 4, 4, 1
	var train []Sample
	for i, plat := range hwsim.EvalPlatforms[:5] {
		train = append(train, buildSamples(t, []string{models.FamilySqueezeNet}, 3, plat, int64(70+i))...)
	}
	p := New(cfg)
	if err := p.Fit(train); err != nil {
		t.Fatal(err)
	}
	var first []byte
	for i := 0; i < 20; i++ {
		var buf bytes.Buffer
		if err := p.Save(&buf); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = buf.Bytes()
		} else if !bytes.Equal(buf.Bytes(), first) {
			t.Fatalf("save %d: %d bytes differ from the first save's %d", i, buf.Len(), len(first))
		}
	}
}

// TestLoadParentFormat loads a predictor file written by the map-based Save
// (testdata/predictor_parent.gob: hidden 4, depth 2, three platforms) and
// checks its predictions bit for bit against the ones the writing code made
// (testdata/predictor_parent.want: platform, graph index, float64 bits).
// Saving the loaded predictor again must round-trip to the same answers.
func TestLoadParentFormat(t *testing.T) {
	f, err := os.Open("testdata/predictor_parent.gob")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	p, err := Load(f)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	resaved, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}

	graphs := []*onnx.Graph{
		models.BuildSqueezeNet(models.BaseSqueezeNet(1)),
		models.BuildResNet(models.BaseResNet(1)),
	}
	want, err := os.ReadFile("testdata/predictor_parent.want")
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	sc := bufio.NewScanner(bytes.NewReader(want))
	for sc.Scan() {
		var plat string
		var gi int
		var hex string
		if _, err := fmt.Sscan(sc.Text(), &plat, &gi, &hex); err != nil {
			t.Fatalf("bad want line %q: %v", sc.Text(), err)
		}
		bits, err := strconv.ParseUint(strings.TrimSpace(hex), 16, 64)
		if err != nil {
			t.Fatal(err)
		}
		for name, q := range map[string]*Predictor{"loaded": p, "resaved": resaved} {
			got, err := q.Predict(graphs[gi], plat)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got) != bits {
				t.Fatalf("%s %s graph %d: %v, want %v", name, plat, gi, got, math.Float64frombits(bits))
			}
		}
		n++
	}
	if n != 6 {
		t.Fatalf("checked %d predictions, want 6", n)
	}
}
