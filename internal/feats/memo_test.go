package feats

import (
	"reflect"
	"testing"

	"nnlqp/internal/models"
)

func TestExtractCachedReturnsSharedInstance(t *testing.T) {
	g := models.BuildSqueezeNet(models.BaseSqueezeNet(1))
	gf1, err := ExtractCached(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	gf2, err := ExtractCached(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	if gf1 != gf2 {
		t.Fatal("second ExtractCached must return the memoized pointer")
	}

	// A different element size is a different feature payload: the memo must
	// not serve the fp32 extraction for an int8 request.
	gf3, err := ExtractCached(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	if gf3 == gf1 {
		t.Fatal("elemSize mismatch must recompute")
	}

	// InvalidateMemo drops the cached features.
	g.InvalidateMemo()
	gf4, err := ExtractCached(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	if gf4 == gf1 {
		t.Fatal("post-invalidation ExtractCached must recompute")
	}
	if !reflect.DeepEqual(gf4.X.Data, gf1.X.Data) || !reflect.DeepEqual(gf4.Static, gf1.Static) {
		t.Fatal("recomputed features must equal the originals for an unmutated graph")
	}
}
