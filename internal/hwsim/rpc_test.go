package hwsim

import (
	"context"
	"errors"
	"net/rpc"
	"sync"
	"testing"
	"time"

	"nnlqp/internal/models"
)

func startFarm(t *testing.T, f *Farm) (*FarmServer, *RemoteFarm) {
	t.Helper()
	srv, err := ServeFarm(f, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	rf, err := DialFarm(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rf.Close() })
	return srv, rf
}

func TestRPCMeasureRoundTrip(t *testing.T) {
	farm := NewDefaultFarm(1)
	_, rf := startFarm(t, farm)
	g := testGraph()
	ctx := context.Background()

	remote, err := rf.Measure(ctx, DatasetPlatform, g, "remote")
	if err != nil {
		t.Fatalf("remote measure: %v", err)
	}
	local, err := (&LocalFarm{Farm: NewDefaultFarm(1)}).Measure(ctx, DatasetPlatform, g, "local")
	if err != nil {
		t.Fatalf("local measure: %v", err)
	}
	// The simulator is deterministic per (graph, platform): the RPC hop must
	// not change any field.
	if *remote != *local {
		t.Fatalf("remote %+v != local %+v", remote, local)
	}
}

// Conns reports the number of live RPC connections.
func (fs *FarmServer) Conns() int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return len(fs.conns)
}

// TestRPCInventoryRoundTrip calls the inventory RPCs on the wire, as a
// client of the farm protocol does.
func TestRPCInventoryRoundTrip(t *testing.T) {
	farm := NewDefaultFarm(2)
	srv, rf := startFarm(t, farm)
	c, err := rpc.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	devices := func(platform string) int {
		var reply DevicesReply
		if err := c.Call("Farm.Devices", &DevicesArgs{Platform: platform}, &reply); err != nil {
			t.Fatal(err)
		}
		return reply.Devices
	}

	var inv ListPlatformsReply
	if err := c.Call("Farm.ListPlatforms", &struct{}{}, &inv); err != nil {
		t.Fatal(err)
	}
	if len(inv.Platforms) != len(Platforms()) {
		t.Fatalf("ListPlatforms = %d entries, want %d", len(inv.Platforms), len(Platforms()))
	}
	for _, p := range inv.Platforms {
		if got := devices(p); got != 2 {
			t.Fatalf("Devices(%s) = %d, want 2", p, got)
		}
	}
	if devices("no-such-platform") != 0 {
		t.Fatal("unknown platform must report 0 devices")
	}
	if w := rf.DeviceWaitSeconds(); w != farm.WaitSeconds() {
		t.Fatalf("DeviceWaitSeconds = %v, want %v", w, farm.WaitSeconds())
	}
	if q, n := rf.QuarantineStats(); q != 0 || n != 0 {
		t.Fatalf("QuarantineStats = (%d, %d), want zeros", q, n)
	}
	farm.Quarantine(DatasetPlatform+"#0", time.Minute)
	if q, n := rf.QuarantineStats(); q != 1 || n != 1 {
		t.Fatalf("QuarantineStats after quarantine = (%d, %d), want (1, 1)", q, n)
	}
}

func TestRPCMeasureErrorPaths(t *testing.T) {
	farm := NewDefaultFarm(1)
	srv, rf := startFarm(t, farm)
	ctx := context.Background()

	t.Run("unknown platform", func(t *testing.T) {
		_, err := rf.Measure(ctx, "no-such-platform", testGraph(), "t")
		if err == nil {
			t.Fatal("want error")
		}
		if IsRetryable(err) {
			t.Fatalf("no devices for a platform must not be retryable: %v", err)
		}
	})

	t.Run("unsupported op", func(t *testing.T) {
		g := models.BuildMobileNetV3(models.BaseMobileNetV3(1))
		_, err := rf.Measure(ctx, "cpu-openppl-fp32", g, "t")
		if err == nil {
			t.Fatal("want unsupported-op error")
		}
		if IsRetryable(err) {
			t.Fatalf("unsupported op must not be retryable: %v", err)
		}
	})

	t.Run("garbage model bytes", func(t *testing.T) {
		c, err := rpc.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		var reply MeasureReply
		err = c.Call("Farm.Measure", &MeasureArgs{
			Platform: DatasetPlatform, Model: []byte("not onnx"), Holder: "t",
		}, &reply)
		if err == nil {
			t.Fatal("want decode error")
		}
		if IsRetryable(classifyFarmError(err)) {
			t.Fatalf("a corrupt model must not be retryable: %v", err)
		}
	})

	t.Run("injected fault survives the wire", func(t *testing.T) {
		farm.SetFaultPlan(&FaultPlan{Seed: 1, Default: &FaultRule{Mode: FaultTransient, Rate: 1, Limit: 1}})
		defer farm.SetFaultPlan(nil)
		_, err := rf.Measure(ctx, DatasetPlatform, testGraph(), "t")
		if !errors.Is(err, ErrDeviceFault) {
			t.Fatalf("err = %v, want ErrDeviceFault after the rpc string round trip", err)
		}
		if !IsRetryable(err) {
			t.Fatal("re-typed device fault must be retryable")
		}
	})
}

func TestRPCConcurrentDials(t *testing.T) {
	farm := NewDefaultFarm(2)
	srv, _ := startFarm(t, farm)
	g := testGraph()

	const n = 8
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rf, err := DialFarm(srv.Addr())
			if err != nil {
				errs[i] = err
				return
			}
			defer rf.Close()
			_, errs[i] = rf.Measure(context.Background(), DatasetPlatform, g, "t")
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("dial %d: %v", i, err)
		}
	}
}

func TestRPCMeasureContextCancelReturnsPromptly(t *testing.T) {
	farm := NewDefaultFarm(1)
	_, rf := startFarm(t, farm)

	// Hold the only device so the remote Measure blocks in Acquire.
	held, err := farm.Acquire(context.Background(), DatasetPlatform, "hog")
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = rf.Measure(ctx, DatasetPlatform, testGraph(), "t")
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("cancelled Measure returned after %s", elapsed)
	}
	// The abandoned call must not wedge the client: once the device frees up,
	// the same RemoteFarm serves the next call.
	farm.Release(held)
	ctx2, cancel2 := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel2()
	if _, err := rf.Measure(ctx2, DatasetPlatform, testGraph(), "t"); err != nil {
		t.Fatalf("measure after abandoned call: %v", err)
	}
}

func TestRPCServerCloseDrainsInFlight(t *testing.T) {
	farm := NewDefaultFarm(1)
	// First call stalls 150ms so Close overlaps an in-flight request.
	farm.SetFaultPlan(&FaultPlan{Seed: 1, Default: &FaultRule{Mode: FaultSlowStart, Delay: 150 * time.Millisecond}})
	srv, err := ServeFarm(farm, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv.Grace = 5 * time.Second
	rf, err := DialFarm(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer rf.Close()

	res := make(chan error, 1)
	go func() {
		_, err := rf.Measure(context.Background(), DatasetPlatform, testGraph(), "t")
		res <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the call reach the server
	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	// Close must not race the in-flight call: it still completes.
	if err := <-res; err != nil {
		t.Fatalf("in-flight measure was not drained: %v", err)
	}
	rf.Close() // client disconnects; the drain finishes without the grace kick
	if err := <-closed; err != nil {
		t.Fatalf("close: %v", err)
	}
	if n := srv.Conns(); n != 0 {
		t.Fatalf("%d connections still tracked after Close", n)
	}
}

func TestRPCRedialAfterConnDrop(t *testing.T) {
	farm := NewDefaultFarm(1)
	farm.SetFaultPlan(&FaultPlan{Seed: 1, ConnDropRate: 1, ConnDropLimit: 1})
	_, rf := startFarm(t, farm)
	ctx := context.Background()

	_, err := rf.Measure(ctx, DatasetPlatform, testGraph(), "t")
	if err == nil {
		t.Fatal("first call must die with the severed connection")
	}
	if !IsRetryable(err) {
		t.Fatalf("severed connection must be retryable: %v", err)
	}
	// The client re-dials; the drop limit is spent, so the retry succeeds.
	if _, err := rf.Measure(ctx, DatasetPlatform, testGraph(), "t"); err != nil {
		t.Fatalf("measure after redial: %v", err)
	}
}
