package hwsim

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/rpc"
	"sync"
	"time"

	"nnlqp/internal/onnx"
)

// The RPC layer mirrors the paper's remote device management: the query
// system talks to the device farm "through the remote procedure call (RPC)
// interface" rather than touching hardware directly. We expose the farm
// over net/rpc so latency measurement can run in a separate process.
//
// The transport is fault-tolerant in both directions: the server tracks
// live connections and drains them on Close with a bounded grace period
// (optionally severing connections mid-flight when the farm's FaultPlan
// says so), and the client re-dials automatically after a broken
// connection and re-types flattened server errors so retry/quarantine
// classification survives the wire.

// MeasureArgs is the wire request for one measurement.
type MeasureArgs struct {
	Platform string
	Model    []byte // onnx binary encoding
	Holder   string
	// DeadlineUnixMilli carries the caller's context deadline across the
	// wire (0 = no deadline) so a remote farm stops waiting for a device
	// when the client has already given up.
	DeadlineUnixMilli int64
}

// MeasureReply is the wire response.
type MeasureReply struct {
	LatencyMS    float64
	Runs         int
	PeakMemBytes int64
	NumKernels   int
	PipelineSec  float64
}

// FarmService is the RPC-exported wrapper around a Farm.
type FarmService struct {
	farm *Farm
}

// Measure acquires a device, runs the full measurement pipeline (fault
// injection and health scoring included), and releases the device.
// Exported for net/rpc.
func (s *FarmService) Measure(args *MeasureArgs, reply *MeasureReply) error {
	g, err := onnx.DecodeBinary(args.Model)
	if err != nil {
		return fmt.Errorf("decode model: %w", err)
	}
	ctx := context.Background()
	if args.DeadlineUnixMilli > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, time.UnixMilli(args.DeadlineUnixMilli))
		defer cancel()
	}
	d, err := s.farm.Acquire(ctx, args.Platform, args.Holder)
	if err != nil {
		return err
	}
	defer s.farm.Release(d)
	res, err := s.farm.MeasureDevice(ctx, d, g)
	if err != nil {
		return err
	}
	reply.LatencyMS = res.LatencyMS
	reply.Runs = res.Runs
	reply.PeakMemBytes = res.PeakMemBytes
	reply.NumKernels = res.NumKernels
	reply.PipelineSec = res.PipelineSec
	return nil
}

// ListPlatformsReply carries the fleet inventory.
type ListPlatformsReply struct {
	Platforms []string
}

// ListPlatforms reports the platforms with at least one registered device.
func (s *FarmService) ListPlatforms(_ *struct{}, reply *ListPlatformsReply) error {
	for _, name := range PlatformNames() {
		if s.farm.Devices(name) > 0 {
			reply.Platforms = append(reply.Platforms, name)
		}
	}
	return nil
}

// DevicesArgs requests the device count of one platform.
type DevicesArgs struct {
	Platform string
}

// DevicesReply carries a platform's device count.
type DevicesReply struct {
	Devices int
}

// Devices reports how many devices the farm has for a platform.
func (s *FarmService) Devices(args *DevicesArgs, reply *DevicesReply) error {
	reply.Devices = s.farm.Devices(args.Platform)
	return nil
}

// WaitStatsReply carries the farm's cumulative device-wait time.
type WaitStatsReply struct {
	WaitSeconds float64
}

// WaitStats reports the cumulative seconds callers spent blocked waiting
// for a device.
func (s *FarmService) WaitStats(_ *struct{}, reply *WaitStatsReply) error {
	reply.WaitSeconds = s.farm.WaitSeconds()
	return nil
}

// HealthStatsReply carries the farm's quarantine counters.
type HealthStatsReply struct {
	Quarantines    int64
	QuarantinedNow int
}

// HealthStats reports the farm's quarantine counters.
func (s *FarmService) HealthStats(_ *struct{}, reply *HealthStatsReply) error {
	h := s.farm.Health()
	reply.Quarantines = h.Quarantines
	reply.QuarantinedNow = h.QuarantinedNow
	return nil
}

// DefaultServerGrace bounds how long FarmServer.Close waits for in-flight
// connections to finish before force-closing them.
const DefaultServerGrace = 5 * time.Second

// FarmServer serves a Farm over TCP, tracking live connections so Close can
// drain them instead of racing in-flight calls.
type FarmServer struct {
	farm *Farm
	lis  net.Listener
	srv  *rpc.Server

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool

	wg   sync.WaitGroup
	once sync.Once

	// Grace bounds Close's drain of in-flight connections (default
	// DefaultServerGrace); after it expires, remaining connections are
	// force-closed.
	Grace time.Duration
}

// ServeFarm starts serving farm on addr (use "127.0.0.1:0" for an ephemeral
// port) and returns the server; Addr reports the bound address.
func ServeFarm(farm *Farm, addr string) (*FarmServer, error) {
	srv := rpc.NewServer()
	if err := srv.RegisterName("Farm", &FarmService{farm: farm}); err != nil {
		return nil, err
	}
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	fs := &FarmServer{
		farm: farm, lis: lis, srv: srv,
		conns: make(map[net.Conn]struct{}),
		Grace: DefaultServerGrace,
	}
	fs.wg.Add(1)
	go func() {
		defer fs.wg.Done()
		for {
			conn, err := lis.Accept()
			if err != nil {
				return // listener closed
			}
			if !fs.track(conn) {
				conn.Close() // lost the race with Close
				continue
			}
			served := conn
			if farm.rollConnDrop() {
				served = &dropConn{Conn: conn}
			}
			fs.wg.Add(1)
			go func(raw net.Conn, c net.Conn) {
				defer fs.wg.Done()
				srv.ServeConn(c)
				fs.untrack(raw)
			}(conn, served)
		}
	}()
	return fs, nil
}

// track registers a live connection; false means the server is closing.
func (fs *FarmServer) track(c net.Conn) bool {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.closed {
		return false
	}
	fs.conns[c] = struct{}{}
	return true
}

func (fs *FarmServer) untrack(c net.Conn) {
	fs.mu.Lock()
	delete(fs.conns, c)
	fs.mu.Unlock()
	c.Close()
}

// Addr returns the listener address.
func (fs *FarmServer) Addr() string { return fs.lis.Addr().String() }

// Close stops accepting connections, waits up to Grace for in-flight
// connections to drain, then force-closes whatever remains and waits for
// all serving goroutines to exit.
func (fs *FarmServer) Close() error {
	var err error
	fs.once.Do(func() {
		fs.mu.Lock()
		fs.closed = true
		fs.mu.Unlock()
		err = fs.lis.Close()

		done := make(chan struct{})
		go func() {
			fs.wg.Wait()
			close(done)
		}()
		grace := fs.Grace
		if grace <= 0 {
			grace = DefaultServerGrace
		}
		select {
		case <-done:
		case <-time.After(grace):
			fs.mu.Lock()
			for c := range fs.conns {
				c.Close()
			}
			fs.mu.Unlock()
			<-done
		}
	})
	return err
}

// dropConn injects a mid-flight connection drop: the request is read and
// served normally, but the first response write severs the connection, so
// the client sees the call vanish (io.ErrUnexpectedEOF) exactly as when a
// farm host dies between request and reply.
type dropConn struct {
	net.Conn
	mu      sync.Mutex
	dropped bool
}

func (c *dropConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	first := !c.dropped
	c.dropped = true
	c.mu.Unlock()
	if first {
		c.Conn.Close()
		return 0, fmt.Errorf("%w: injected connection drop", net.ErrClosed)
	}
	return c.Conn.Write(p)
}

// RemoteFarm is the client side of the RPC device interface. It satisfies
// the Measurer interface the query system consumes, and transparently
// re-dials after a broken connection so one severed TCP stream does not
// poison every later call.
type RemoteFarm struct {
	addr string

	mu     sync.Mutex
	client *rpc.Client
	closed bool
}

// DialFarm connects to a farm server.
func DialFarm(addr string) (*RemoteFarm, error) {
	r := &RemoteFarm{addr: addr}
	if _, err := r.conn(); err != nil {
		return nil, err
	}
	return r, nil
}

// conn returns the live client, dialing a fresh connection if the previous
// one was dropped.
func (r *RemoteFarm) conn() (*rpc.Client, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, rpc.ErrShutdown
	}
	if r.client != nil {
		return r.client, nil
	}
	c, err := rpc.Dial("tcp", r.addr)
	if err != nil {
		return nil, fmt.Errorf("%w: dial farm %s: %v", ErrDeviceFault, r.addr, err)
	}
	r.client = c
	return c, nil
}

// drop discards a client whose transport broke, so the next call re-dials.
func (r *RemoteFarm) drop(c *rpc.Client) {
	r.mu.Lock()
	if r.client == c {
		r.client = nil
	}
	r.mu.Unlock()
	c.Close()
}

// isTransportError reports errors that poison the whole rpc.Client (vs.
// per-call server errors, which leave the connection usable).
func isTransportError(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, rpc.ErrShutdown) || errors.Is(err, net.ErrClosed) {
		return true
	}
	var ne net.Error
	if errors.As(err, &ne) {
		return true
	}
	// net/rpc surfaces a severed connection as io.EOF/io.ErrUnexpectedEOF.
	_, isServerErr := err.(rpc.ServerError)
	return !isServerErr && (err.Error() == "EOF" || err.Error() == "unexpected EOF")
}

// call runs one RPC, re-dialing on the next call after transport failures
// and re-typing flattened server errors.
func (r *RemoteFarm) call(method string, args, reply any) error {
	c, err := r.conn()
	if err != nil {
		return classifyFarmError(err)
	}
	if err := c.Call(method, args, reply); err != nil {
		if isTransportError(err) {
			r.drop(c)
		}
		return classifyFarmError(err)
	}
	return nil
}

// Measure runs the full pipeline remotely. The context deadline (if any) is
// forwarded to the farm so the remote device wait is bounded too; local
// cancellation abandons the call — the pending reply is drained in the
// background so neither the call object nor the client's receive loop is
// left stuck — and surfaces ctx.Err() consistently even when the transport
// fails at the same moment.
func (r *RemoteFarm) Measure(ctx context.Context, platform string, g *onnx.Graph, holder string) (*MeasureResult, error) {
	data, err := g.EncodeBinary()
	if err != nil {
		return nil, err
	}
	args := &MeasureArgs{Platform: platform, Model: data, Holder: holder}
	if dl, ok := ctx.Deadline(); ok {
		args.DeadlineUnixMilli = dl.UnixMilli()
	}
	c, err := r.conn()
	if err != nil {
		return nil, classifyFarmError(err)
	}
	var reply MeasureReply
	call := c.Go("Farm.Measure", args, &reply, make(chan *rpc.Call, 1))
	select {
	case <-ctx.Done():
		// Abandon the call: drain its completion asynchronously (the remote
		// farm stops on the forwarded deadline) instead of leaking the
		// pending call until process exit.
		go func() {
			if done := <-call.Done; done.Error != nil && isTransportError(done.Error) {
				r.drop(c)
			}
		}()
		return nil, ctx.Err()
	case done := <-call.Done:
		if done.Error != nil {
			if isTransportError(done.Error) {
				r.drop(c)
			}
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			return nil, classifyFarmError(done.Error)
		}
	}
	return &MeasureResult{
		LatencyMS:    reply.LatencyMS,
		Runs:         reply.Runs,
		PeakMemBytes: reply.PeakMemBytes,
		NumKernels:   reply.NumKernels,
		PipelineSec:  reply.PipelineSec,
	}, nil
}

// DeviceWaitSeconds reports the remote farm's cumulative device-wait time
// (0 on RPC failure).
func (r *RemoteFarm) DeviceWaitSeconds() float64 {
	var reply WaitStatsReply
	if err := r.call("Farm.WaitStats", &struct{}{}, &reply); err != nil {
		return 0
	}
	return reply.WaitSeconds
}

// QuarantineStats reports the remote farm's quarantine counters (zeros on
// RPC failure).
func (r *RemoteFarm) QuarantineStats() (int64, int) {
	var reply HealthStatsReply
	if err := r.call("Farm.HealthStats", &struct{}{}, &reply); err != nil {
		return 0, 0
	}
	return reply.Quarantines, reply.QuarantinedNow
}

// Close tears down the connection.
func (r *RemoteFarm) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.closed = true
	if r.client == nil {
		return nil
	}
	c := r.client
	r.client = nil
	return c.Close()
}

// LocalFarm adapts an in-process Farm to the same Measure signature as
// RemoteFarm, for single-process deployments and tests.
type LocalFarm struct {
	Farm *Farm
}

// Measure acquires, measures, releases locally, honouring ctx while
// waiting for a device and routing through the farm's fault-injection and
// health-scoring choke point.
func (l *LocalFarm) Measure(ctx context.Context, platform string, g *onnx.Graph, holder string) (*MeasureResult, error) {
	d, err := l.Farm.Acquire(ctx, platform, holder)
	if err != nil {
		return nil, err
	}
	defer l.Farm.Release(d)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return l.Farm.MeasureDevice(ctx, d, g)
}

// Devices reports the local farm's device count for a platform.
func (l *LocalFarm) Devices(platform string) int { return l.Farm.Devices(platform) }

// Idle reports the local farm's currently idle device count for a platform
// (the active-measurement scheduler's capacity gate).
func (l *LocalFarm) Idle(platform string) int { return l.Farm.Idle(platform) }

// DeviceWaitSeconds reports the local farm's cumulative device-wait time.
func (l *LocalFarm) DeviceWaitSeconds() float64 { return l.Farm.WaitSeconds() }

// QuarantineStats reports the local farm's quarantine counters.
func (l *LocalFarm) QuarantineStats() (int64, int) {
	h := l.Farm.Health()
	return h.Quarantines, h.QuarantinedNow
}
