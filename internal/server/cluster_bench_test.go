package server

import (
	"fmt"
	"testing"

	"nnlqp/internal/cluster"
	"nnlqp/internal/db"
	"nnlqp/internal/hwsim"
	"nnlqp/internal/models"
	"nnlqp/internal/onnx"
)

// benchReplica starts one serving core over store and returns its address.
func benchReplica(b *testing.B, store *db.Store) string {
	b.Helper()
	srv := NewCore(NewStorageRole(store, 0, 0), NewLocalMeasurementRole(2), nil)
	addr, stop, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = stop() })
	return addr
}

// BenchmarkRouterOverhead measures the cost of the router hop: the same warm
// L1-hit query against one replica, direct versus through a single-member
// router. The ns/op delta is the routing tax — key derivation, policy
// ordering, the extra HTTP leg and the response relay.
func BenchmarkRouterOverhead(b *testing.B) {
	store, err := db.OpenStore("")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { store.Close() })
	replica := benchReplica(b, store)

	rt := cluster.New(cluster.Config{Policy: cluster.CacheAffinity{}})
	rt.AddReplica("replica-0", replica)
	routed, stop, err := rt.Serve("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = stop() })

	g := models.BuildSqueezeNet(models.BaseSqueezeNet(1))
	for _, bc := range []struct{ name, addr string }{
		{"direct", replica},
		{"routed", routed},
	} {
		b.Run(bc.name, func(b *testing.B) {
			c := NewClient("http://" + bc.addr)
			if _, err := c.Query(g, hwsim.DatasetPlatform, 0); err != nil {
				b.Fatal(err) // warm the L1 so every timed iteration is a hit
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.Query(g, hwsim.DatasetPlatform, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkClusterPolicyL1 drives a repeated 10-graph workload through a
// three-replica cluster (private L1s, one shared store) under each routing
// policy, reporting the end-of-run aggregate L1 hit rate next to the per-query
// latency. Rates climb with run length as round-robin eventually warms every
// private L1; the fixed-workload separation (0.500 vs 0.833 over 60 queries)
// is pinned by TestClusterAffinityBeatsRoundRobinL1.
func BenchmarkClusterPolicyL1(b *testing.B) {
	graphs := make([]*onnx.Graph, 10)
	for i := range graphs {
		graphs[i] = models.BuildSqueezeNet(models.BaseSqueezeNet(i + 1))
	}
	for _, policy := range []cluster.Policy{
		cluster.NewRoundRobin(), cluster.LeastLoaded{}, cluster.CacheAffinity{},
	} {
		b.Run(policy.Name(), func(b *testing.B) {
			store, err := db.OpenStore("")
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { store.Close() })
			rt := cluster.New(cluster.Config{Policy: policy})
			var replicas []string
			for i := 0; i < 3; i++ {
				replicas = append(replicas, benchReplica(b, store))
				rt.AddReplica(fmt.Sprintf("replica-%d", i), replicas[i])
			}
			addr, stop, err := rt.Serve("127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { _ = stop() })
			c := NewClient("http://" + addr)

			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.Query(graphs[i%len(graphs)], hwsim.DatasetPlatform, 0); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()

			var hits, queries float64
			for _, replica := range replicas {
				data, err := NewClient("http://" + replica).Stats()
				if err != nil {
					b.Fatal(err)
				}
				hits += float64(data.L1Hits)
				queries += float64(data.Queries)
			}
			if queries > 0 {
				b.ReportMetric(hits/queries, "l1_hit_rate")
			}
		})
	}
}
