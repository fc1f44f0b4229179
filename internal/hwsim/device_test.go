package hwsim

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"nnlqp/internal/models"
)

func TestFarmAcquireRelease(t *testing.T) {
	f := NewFarm()
	p := mustPlatform(t, "gpu-T4-trt7.1-fp32")
	f.AddDevice(&Device{ID: "t4#0", Platform: p})
	if f.Devices(p.Name) != 1 {
		t.Fatal("device not registered")
	}
	d, err := f.Acquire(context.Background(), p.Name, "test")
	if err != nil {
		t.Fatal(err)
	}
	if got := f.TryAcquire(p.Name, "other"); got != nil {
		t.Fatal("second acquire should fail while device held")
	}
	f.Release(d)
	if got := f.TryAcquire(p.Name, "other"); got == nil {
		t.Fatal("acquire should succeed after release")
	}
}

func TestFarmAcquireUnknownPlatform(t *testing.T) {
	f := NewFarm()
	if _, err := f.Acquire(context.Background(), "no-such-platform", "x"); err == nil {
		t.Fatal("want error for platform with no devices")
	}
}

func TestFarmBlocksUntilRelease(t *testing.T) {
	f := NewFarm()
	p := mustPlatform(t, "gpu-T4-trt7.1-fp32")
	f.AddDevice(&Device{ID: "t4#0", Platform: p})
	d, _ := f.Acquire(context.Background(), p.Name, "holder1")

	acquired := make(chan *Device, 1)
	go func() {
		d2, err := f.Acquire(context.Background(), p.Name, "holder2")
		if err != nil {
			t.Error(err)
		}
		acquired <- d2
	}()
	select {
	case <-acquired:
		t.Fatal("second acquire should block")
	case <-time.After(30 * time.Millisecond):
	}
	f.Release(d)
	select {
	case <-acquired:
	case <-time.After(2 * time.Second):
		t.Fatal("blocked acquire never woke")
	}
}

func TestFarmAcquireHonoursCancellation(t *testing.T) {
	f := NewFarm()
	p := mustPlatform(t, "gpu-T4-trt7.1-fp32")
	f.AddDevice(&Device{ID: "t4#0", Platform: p})
	d, err := f.Acquire(context.Background(), p.Name, "holder1")
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := f.Acquire(ctx, p.Name, "holder2")
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the second acquire block
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled acquire never returned")
	}

	// The cancelled waiter must not have consumed a slot: after releasing
	// the original device the pool is whole again.
	f.Release(d)
	if f.Idle(p.Name) != 1 {
		t.Fatalf("idle = %d after release, want 1", f.Idle(p.Name))
	}
	if got := f.TryAcquire(p.Name, "holder3"); got == nil {
		t.Fatal("device should be acquirable after cancelled wait")
	}
	if f.WaitSeconds() <= 0 {
		t.Fatal("blocked wait must be accounted in WaitSeconds")
	}
}

func TestFarmAcquireExpiredDeadline(t *testing.T) {
	f := NewFarm()
	p := mustPlatform(t, "gpu-T4-trt7.1-fp32")
	f.AddDevice(&Device{ID: "t4#0", Platform: p})
	d, _ := f.Acquire(context.Background(), p.Name, "holder1")
	defer f.Release(d)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := f.Acquire(ctx, p.Name, "holder2"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if waited := time.Since(start); waited > time.Second {
		t.Fatalf("acquire took %s after a 10ms deadline", waited)
	}
}

func TestFarmConcurrentContention(t *testing.T) {
	f := NewFarm()
	p := mustPlatform(t, "gpu-T4-trt7.1-fp32")
	for i := 0; i < 3; i++ {
		f.AddDevice(&Device{ID: string(rune('a' + i)), Platform: p})
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	inUse := 0
	maxInUse := 0
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d, err := f.Acquire(context.Background(), p.Name, "worker")
			if err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			inUse++
			if inUse > maxInUse {
				maxInUse = inUse
			}
			mu.Unlock()
			time.Sleep(time.Millisecond)
			mu.Lock()
			inUse--
			mu.Unlock()
			f.Release(d)
		}()
	}
	wg.Wait()
	if maxInUse > 3 {
		t.Fatalf("pool over-subscribed: %d devices in use", maxInUse)
	}
}

func TestMeasureOnDevice(t *testing.T) {
	f := NewDefaultFarm(1)
	d, err := f.Acquire(context.Background(), DatasetPlatform, "test")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Release(d)
	g := models.BuildSqueezeNet(models.BaseSqueezeNet(1))
	res, err := MeasureOn(d, g)
	if err != nil {
		t.Fatal(err)
	}
	if res.LatencyMS <= 0 || res.PipelineSec <= 0 || res.NumKernels <= 0 {
		t.Fatalf("degenerate result %+v", res)
	}
}

func TestRPCFarmEndToEnd(t *testing.T) {
	farm := NewDefaultFarm(2)
	srv, err := ServeFarm(farm, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	client, err := DialFarm(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	g := models.BuildSqueezeNet(models.BaseSqueezeNet(1))
	res, err := client.Measure(context.Background(), DatasetPlatform, g, "rpc-test")
	if err != nil {
		t.Fatal(err)
	}
	// Remote measurement must agree with local.
	local := &LocalFarm{Farm: farm}
	lres, err := local.Measure(context.Background(), DatasetPlatform, g, "local-test")
	if err != nil {
		t.Fatal(err)
	}
	if res.LatencyMS != lres.LatencyMS {
		t.Fatalf("remote %.6f != local %.6f", res.LatencyMS, lres.LatencyMS)
	}
}

func TestRPCFarmErrorsPropagate(t *testing.T) {
	farm := NewDefaultFarm(1)
	srv, err := ServeFarm(farm, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := DialFarm(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	// Unsupported op on the platform -> remote error.
	g := models.BuildMobileNetV3(models.BaseMobileNetV3(1))
	if _, err := client.Measure(context.Background(), "cpu-openppl-fp32", g, "t"); err == nil {
		t.Fatal("want remote unsupported-op error")
	}
}

func TestRPCMeasureDeadlinePropagates(t *testing.T) {
	farm := NewFarm()
	p := mustPlatform(t, DatasetPlatform)
	farm.AddDevice(&Device{ID: "only", Platform: p})
	srv, err := ServeFarm(farm, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := DialFarm(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	// Hold the single device so the remote Measure has to wait, then send a
	// request whose deadline expires while queued.
	d, err := farm.Acquire(context.Background(), p.Name, "hog")
	if err != nil {
		t.Fatal(err)
	}
	g := models.BuildSqueezeNet(models.BaseSqueezeNet(1))
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := client.Measure(ctx, p.Name, g, "queued"); err == nil {
		t.Fatal("want deadline error from queued remote measure")
	}
	farm.Release(d)
	// The farm must be usable afterwards: the expired waiter left no hold.
	res, err := client.Measure(context.Background(), p.Name, g, "after")
	if err != nil {
		t.Fatal(err)
	}
	if res.LatencyMS <= 0 {
		t.Fatalf("degenerate result %+v", res)
	}
}

func TestRPCConcurrentClients(t *testing.T) {
	farm := NewDefaultFarm(2)
	srv, err := ServeFarm(farm, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	g := models.BuildSqueezeNet(models.BaseSqueezeNet(1))
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := DialFarm(srv.Addr())
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			if _, err := c.Measure(context.Background(), DatasetPlatform, g, "c"); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
}
