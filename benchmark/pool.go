//go:build linux

package main

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"nnlqp/internal/graphhash"
	"nnlqp/internal/hwsim"
	"nnlqp/internal/models"
	"nnlqp/internal/onnx"
	"nnlqp/internal/server"
)

const platform = hwsim.DatasetPlatform

// item is one distinct model the load generator can ask about. Both bodies
// carry the same graph; the server sees nothing but these bytes.
type item struct {
	body  []byte        // JSON server.Request, as POSTed
	key   graphhash.Key // key of the graph the server derives from body
	batch int           // batch_size override in body (0 = none)
}

// pool is a seeded, append-only sequence of items that are pairwise distinct
// by GraphKey and cycle through the zoo families: while every family still
// has unseen variants, item i is a variant of models.Families[i%10]. Every
// stretch of the sequence therefore has the same family mix on every seed;
// what a seed changes is the variants. A family whose variant space runs dry
// (SqueezeNet has 247 distinct graphs) drops out of the cycle. The sequence
// depends only on (seed, batchEvery): growing in one step or many yields the
// same items, so a run that needs fewer requests uses a prefix of what a
// faster run would use.
type pool struct {
	prefix     string
	batchEvery int // one draw in batchEvery carries batch_size 8 (0 = never)
	rng        *rand.Rand
	drawn      int
	seen       map[graphhash.Key]struct{}
	byFamily   [][]item // distinct items per family, in draw order
	dry        []bool   // the family repeats itself more often than not: no more draws
	items      []item   // byFamily interleaved round by round
}

func newPool(seed int64, prefix string, batchEvery int) *pool {
	return &pool{
		prefix:     prefix,
		batchEvery: batchEvery,
		rng:        rand.New(rand.NewSource(seed)),
		seen:       make(map[graphhash.Key]struct{}),
		byFamily:   make([][]item, len(models.Families)),
		dry:        make([]bool, len(models.Families)),
	}
}

// chunkSize bounds how many undecoded graphs are alive at once.
const chunkSize = 250

// grow draws whole chunks until the pool holds at least n items; callers
// slice what they need, so the surplus stays part of the sequence. Variants
// are drawn round-robin from the families that are not dry, in rng order
// (sequential, so the draw order is the seed's); encoding and hashing fan out
// across the CPUs; duplicates by key are dropped in draw order.
func (p *pool) grow(n int) error {
	type drawnGraph struct {
		g      *onnx.Graph
		family int
		batch  int
	}
	families := len(models.Families)
	for len(p.items) < n {
		chunk := make([]drawnGraph, 0, chunkSize)
		for f := 0; len(chunk) < chunkSize; f = (f + 1) % families {
			if p.dry[f] {
				continue
			}
			g, err := models.Variant(models.Families[f], p.rng, 1)
			if err != nil {
				return err
			}
			g.Name = fmt.Sprintf("%s-%06d", p.prefix, p.drawn)
			d := drawnGraph{g: g, family: f}
			// The batch-8 draws rotate through the families.
			if p.batchEvery > 0 && (p.drawn/families+f)%p.batchEvery == 0 {
				d.batch = 8
			}
			chunk = append(chunk, d)
			p.drawn++
		}
		built := make([]item, len(chunk))
		errs := make([]error, len(chunk))
		var wg sync.WaitGroup
		workers := runtime.GOMAXPROCS(0)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(chunk); i += workers {
					built[i], errs[i] = encodeItem(chunk[i].g, chunk[i].batch)
				}
			}(w)
		}
		wg.Wait()
		draws, fresh := make([]int, families), make([]int, families)
		for i := range built {
			if errs[i] != nil {
				return errs[i]
			}
			f := chunk[i].family
			draws[f]++
			if _, dup := p.seen[built[i].key]; dup {
				continue
			}
			fresh[f]++
			p.seen[built[i].key] = struct{}{}
			p.byFamily[f] = append(p.byFamily[f], built[i])
		}
		live := 0
		for f := range p.dry {
			p.dry[f] = p.dry[f] || 2*fresh[f] < draws[f]
			if !p.dry[f] {
				live++
			}
		}
		p.interleave()
		if live == 0 && len(p.items) < n {
			return fmt.Errorf("pool %s: the zoo ran out of distinct variants at %d graphs (wanted %d)", p.prefix, len(p.items), n)
		}
	}
	return nil
}

// interleave rebuilds items round by round: round r takes the r-th item of
// each family in order, skips a dry family that has none left, and stops at
// a live family that has not produced its r-th item yet. What it emitted
// before, it emits again: queues only grow, and a dry family's never does.
func (p *pool) interleave() {
	p.items = p.items[:0]
	for r := 0; ; r++ {
		took := false
		for f := range p.byFamily {
			switch {
			case r < len(p.byFamily[f]):
				p.items = append(p.items, p.byFamily[f][r])
				took = true
			case !p.dry[f]:
				return
			}
		}
		if !took {
			return
		}
	}
}

// encodeItem renders g as the wire body and computes the key the server
// will derive: a batch_size override rewrites the leading input dimension
// before hashing, exactly as the handler does.
func encodeItem(g *onnx.Graph, batch int) (item, error) {
	body, err := encodeRequest(g, batch)
	if err != nil {
		return item{}, err
	}
	if batch > 0 {
		for i := range g.Inputs {
			if len(g.Inputs[i].Shape) > 0 {
				g.Inputs[i].Shape[0] = batch
			}
		}
	}
	key, err := graphhash.GraphKey(g)
	if err != nil {
		return item{}, err
	}
	return item{body: body, key: key, batch: batch}, nil
}

// encodeRequest is the client side of the wire protocol: binary model,
// base64, JSON envelope.
func encodeRequest(g *onnx.Graph, batch int) ([]byte, error) {
	raw, err := g.EncodeBinary()
	if err != nil {
		return nil, err
	}
	return json.Marshal(server.Request{
		Model:     base64.StdEncoding.EncodeToString(raw),
		Platform:  platform,
		BatchSize: batch,
	})
}

// request is one planned call: which item, which endpoint, when it is due
// (open loop only) and what the answer must look like.
type request struct {
	item   int32
	path   string
	expect expectation
	due    time.Duration
}

// expectation names what is determined about a response besides its value.
type expectation uint8

const (
	expectAny      expectation = iota
	expectL1                   // /query answered from the L1 cache
	expectCacheHit             // /query answered from L1 or L2
	expectMeasured             // /query measured on the farm
	expectFresh                // /predict computed, not memoized
)

// poissonSchedule lays a merged Poisson arrival process at rate req/s over
// [0, window) plus extra arrivals after it (the traced sample continues the
// same process).
func poissonSchedule(rng *rand.Rand, rate float64, window time.Duration, extra int) []time.Duration {
	var due []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= window {
			if extra == 0 {
				return due
			}
			extra--
		}
		due = append(due, d)
	}
}
