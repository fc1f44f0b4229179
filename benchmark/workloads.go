//go:build linux

package main

import (
	"fmt"
	"math/rand"
	"time"
)

// workload is one traffic mix and the server fleet it runs against.
type workload struct {
	spec         workloadSpec
	routed       bool     // a router in front of the replicas
	replicas     int      // server processes with private -db directories
	replicaArgs  []string // flags beyond -db, -sync always and -predictor
	cacheEntries int      // the replicas' L1 capacity, for the in-process replay (0 = default)

	// prepare builds the seed's request pool and the requests set-up issues
	// (pre-ingest and warm-up) before the timed window.
	prepare func(seed int64) (*scenario, error)
}

// scenario is a workload instantiated for one seed.
type scenario struct {
	items   []item
	preload []request
	// plan lays out the timed window and, continuing the same sequence, the
	// tail requests the traced sample replays. warmRate is the request rate
	// the second half of set-up achieved; never-repeating workloads size
	// their pool from it, so a faster server is not starved of fresh graphs.
	plan func(window time.Duration, warmRate float64) (timed plan, tail []request, err error)
}

const (
	hitSet        = 256  // hit_replay working set; fits the 8,192-entry default L1
	warmUp        = 200  // warm-up requests of the never-repeating workloads
	tailLen       = 500  // requests in the traced sample
	poolHeadroom  = 1.3  // fresh graphs generated per graph the warm-up rate predicts
	mixedRate     = 240  // mixed_routed offered load, req/s
	mixedKnown    = 800  // pre-ingested graphs of mixed_routed
	mixedCache    = 128  // per-replica L1 entries: each replica owns ~400 graphs, 3x its L1
	mixedZipf     = 1.1  // popularity skew over the classes of known graphs
	mixedClass    = 10   // graphs per popularity class: one of each family
	mixedBatchNth = 10   // one known graph in ten is always asked for with batch_size 8
	mixedAdmit    = 960  // admission rate per replica, 4x the offered load: exercised, never shedding
	shareQuery    = 0.70 // of mixed_routed requests: /query of a known graph
	sharePredict  = 0.20 // /predict of a known graph; the remaining 0.10 are /query of new graphs
)

func workloads() []*workload {
	return []*workload{
		{spec: workloadSpecs[0], replicas: 1, prepare: prepareHitReplay},
		{spec: workloadSpecs[1], replicas: 1, prepare: func(seed int64) (*scenario, error) {
			return prepareSweep(seed, "/predict", expectFresh)
		}},
		{spec: workloadSpecs[2], replicas: 1, prepare: func(seed int64) (*scenario, error) {
			return prepareSweep(seed, "/query", expectMeasured)
		}},
		{spec: workloadSpecs[3], replicas: 2, routed: true, cacheEntries: mixedCache,
			replicaArgs: []string{
				"-cache-entries", fmt.Sprint(mixedCache),
				"-admit-rate", fmt.Sprint(mixedAdmit), "-admit-queue", "64",
			},
			prepare: prepareMixed},
	}
}

func workloadByName(name string) *workload {
	for _, w := range workloads() {
		if w.spec.Name == name {
			return w
		}
	}
	return nil
}

// prepareHitReplay: ingest the working set, touch it once more so every
// graph sits in L1, then cycle it.
func prepareHitReplay(seed int64) (*scenario, error) {
	p := newPool(seed, "hit", 0)
	if err := p.grow(hitSet); err != nil {
		return nil, err
	}
	sc := &scenario{items: p.items[:hitSet]}
	cycle := make([]request, hitSet)
	for i := range cycle {
		sc.preload = append(sc.preload, request{item: int32(i), path: "/query", expect: expectMeasured})
		cycle[i] = request{item: int32(i), path: "/query", expect: expectL1}
	}
	sc.preload = append(sc.preload, cycle...)
	sc.plan = func(time.Duration, float64) (plan, []request, error) {
		tail := make([]request, tailLen)
		for i := range tail {
			tail[i] = cycle[i%hitSet]
		}
		return plan{reqs: cycle, items: sc.items, cycle: true}, tail, nil
	}
	return sc, nil
}

// prepareSweep: every request carries a graph the server has never seen.
func prepareSweep(seed int64, path string, expect expectation) (*scenario, error) {
	p := newPool(seed, "sweep", 0)
	if err := p.grow(warmUp); err != nil {
		return nil, err
	}
	sc := &scenario{items: p.items}
	one := func(i int) request { return request{item: int32(i), path: path, expect: expect} }
	for i := 0; i < warmUp; i++ {
		sc.preload = append(sc.preload, one(i))
	}
	sc.plan = func(window time.Duration, warmRate float64) (plan, []request, error) {
		n := int(warmRate * window.Seconds() * poolHeadroom)
		if err := p.grow(warmUp + n + tailLen); err != nil {
			return plan{}, nil, err
		}
		sc.items = p.items
		reqs := make([]request, 0, n+tailLen)
		for i := warmUp; i < warmUp+n+tailLen; i++ {
			reqs = append(reqs, one(i))
		}
		return plan{reqs: reqs[:n], items: sc.items}, reqs[n:], nil
	}
	return sc, nil
}

// prepareMixed: known graphs are ingested through the router, then one
// merged Poisson schedule mixes cached reads, predictions and writes.
func prepareMixed(seed int64) (*scenario, error) {
	known := newPool(seed, "known", mixedBatchNth)
	if err := known.grow(mixedKnown); err != nil {
		return nil, err
	}
	sc := &scenario{items: known.items[:mixedKnown:mixedKnown]}
	for i := 0; i < mixedKnown; i++ {
		sc.preload = append(sc.preload, request{item: int32(i), path: "/query", expect: expectMeasured})
	}
	sc.plan = func(window time.Duration, _ float64) (plan, []request, error) {
		reqs, fresh := mixedSchedule(seed, window)
		novel := newPool(seed^0x6e6f76656c, "novel", 0)
		// The two pools draw from the same zoo; a novel graph that happens
		// to equal a known one would be a cache hit, so it is not novel.
		for k := range known.seen {
			novel.seen[k] = struct{}{}
		}
		if err := novel.grow(fresh); err != nil {
			return plan{}, nil, err
		}
		sc.items = append(sc.items, novel.items[:fresh]...)
		n := len(reqs) - tailLen
		return plan{reqs: reqs[:n], items: sc.items, open: true}, reqs[n:], nil
	}
	return sc, nil
}

// mixedSchedule lays out mixed_routed's arrivals over window plus the traced
// tail, and counts the novel graphs they need (items mixedKnown and up).
func mixedSchedule(seed int64, window time.Duration) (reqs []request, fresh int) {
	// Independent streams for arrivals and for the mix, so lengthening the
	// window extends the schedule without reshuffling it.
	due := poissonSchedule(rand.New(rand.NewSource(seed^0x5ca1ab1e)), mixedRate, window, tailLen)
	rng := rand.New(rand.NewSource(seed ^ 0x0ddba11))
	// Popularity is by class of ten consecutive graphs, one of each family,
	// so the hot set has the same family mix on every seed.
	zipf := rand.NewZipf(rng, mixedZipf, 1, mixedKnown/mixedClass-1)
	known := func() int32 { return int32(int(zipf.Uint64())*mixedClass + rng.Intn(mixedClass)) }
	reqs = make([]request, len(due))
	for i, d := range due {
		switch u := rng.Float64(); {
		case u < shareQuery:
			reqs[i] = request{item: known(), path: "/query", expect: expectCacheHit, due: d}
		case u < shareQuery+sharePredict:
			reqs[i] = request{item: known(), path: "/predict", expect: expectAny, due: d}
		default:
			reqs[i] = request{item: int32(mixedKnown + fresh), path: "/query", expect: expectMeasured, due: d}
			fresh++
		}
	}
	return reqs, fresh
}
