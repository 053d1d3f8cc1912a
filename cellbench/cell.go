package main

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"decorum/internal/blockdev"
	"decorum/internal/client"
	"decorum/internal/episode"
	"decorum/internal/fs"
	"decorum/internal/obs"
	"decorum/internal/server"
	"decorum/internal/vfs"
)

const (
	srvAddr   = "fs0:7000"
	blockSize = 4096
)

// cellConfig sizes one cell: the server's disk, its log and its buffer
// pool, all in 4 KiB blocks.
type cellConfig struct {
	blocks    int64
	logBlocks int64
	pool      int
	crashable bool // put the disk behind a blockdev.CrashDevice
}

// cell is one in-process DEcorum cell: a block device, an Episode
// aggregate with one volume, a file server, and the cache managers the
// workload creates, joined over net.Pipe associations. It is built from
// the same public constructors the cell tools use. Restarting the server
// keeps the device and replaces everything above it.
type cell struct {
	tr     *tracer // nil on untraced runs
	cfg    cellConfig
	mem    *blockdev.MemDevice
	crash  *blockdev.CrashDevice // the live crash wrapper when crashable
	agg    *episode.Aggregate
	vol    vfs.VolumeInfo
	locate *client.StaticLocator

	mu     sync.Mutex
	srv    *server.Server // guarded by mu; current incarnation
	srvReg *obs.Registry  // guarded by mu; nil on untraced runs
	side   []net.Conn     // guarded by mu; server ends of this incarnation's conns
	epoch  uint64         // guarded by mu

	// Traced runs only: bytes counted by the benchmark's conn wrapper,
	// and the metrics of retired server incarnations and closed clients.
	wireIn, wireOut atomic.Uint64
	srvTotals       totals         // guarded by mu
	cliTotals       totals         // guarded by mu
	clients         []*benchClient // guarded by mu; clients not yet closed
}

func newCell(tr *tracer, cfg cellConfig) (*cell, error) {
	c := &cell{
		tr:        tr,
		cfg:       cfg,
		mem:       blockdev.NewMem(blockSize, cfg.blocks),
		locate:    client.NewStaticLocator(),
		srvTotals: newTotals(),
		cliTotals: newTotals(),
	}
	agg, err := episode.Format(c.device(), c.aggOptions())
	if err != nil {
		return nil, fmt.Errorf("format: %w", err)
	}
	c.agg = agg
	if c.vol, err = agg.CreateVolume("user.bench", 0); err != nil {
		return nil, fmt.Errorf("create volume: %w", err)
	}
	c.locate.Add(c.vol.ID, "user.bench", srvAddr)
	c.startServer(0)
	return c, nil
}

// aggOptions turns the periodic batch-commit daemon off: checkpoints
// happen only under log pressure or when a workload asks, so what is
// durable at any point of a run does not depend on timing.
func (c *cell) aggOptions() episode.Options {
	return episode.Options{LogBlocks: c.cfg.logBlocks, PoolSize: c.cfg.pool, CheckpointInterval: -1}
}

// device builds the stack under the aggregate: memory disk, then the
// crash wrapper when asked for, then the traced wrapper on traced runs.
func (c *cell) device() blockdev.Device {
	var d blockdev.Device = c.mem
	if c.cfg.crashable {
		c.crash = blockdev.NewCrash(c.mem)
		d = c.crash
	}
	if c.tr != nil {
		d = tracedDevice{Device: d, t: c.tr}
	}
	return d
}

// startServer brings up a new server incarnation over the current
// aggregate and returns the server ends of the previous incarnation's
// associations, which the caller severs when it chooses.
func (c *cell) startServer(grace time.Duration) []net.Conn {
	var reg *obs.Registry
	if c.tr != nil {
		reg = obs.NewRegistry()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.epoch++
	if c.srvReg != nil {
		c.srvTotals.add(c.srvReg)
	}
	c.srv = server.New(server.Options{Name: srvAddr, Obs: reg, Epoch: c.epoch, GracePeriod: grace}, c.agg)
	c.srvReg = reg
	old := c.side
	c.side = nil
	return old
}

// crashAndReopen crashes the device, dropping every write since its last
// Sync, and opens the aggregate again over what survived, which replays
// the log. It returns how long the re-open took. The old aggregate is
// abandoned, not closed: its device rejects all I/O after the crash.
func (c *cell) crashAndReopen() (time.Duration, error) {
	if err := c.crash.Crash(blockdev.DropAll, nil); err != nil {
		return 0, fmt.Errorf("crash: %w", err)
	}
	dev := c.device()
	start := time.Now()
	agg, err := episode.Open(dev, c.aggOptions())
	d := time.Since(start)
	if err != nil {
		return 0, fmt.Errorf("re-open after crash: %w", err)
	}
	c.agg = agg
	return d, nil
}

func isNotExist(err error) bool { return errors.Is(err, fs.ErrNotExist) }

func (c *cell) server() *server.Server {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.srv
}

func (c *cell) dial(addr string) (net.Conn, error) {
	if addr != srvAddr {
		return nil, fmt.Errorf("no server %q in the cell", addr)
	}
	cs, ss := net.Pipe()
	c.mu.Lock()
	srv := c.srv
	c.side = append(c.side, ss)
	c.mu.Unlock()
	srv.Attach(ss)
	if c.tr == nil {
		return cs, nil
	}
	return meteredConn{Conn: cs, t: c.tr, in: &c.wireIn, out: &c.wireOut}, nil
}

// benchClient is one cache manager with its mounted root.
type benchClient struct {
	*client.Client
	root   vfs.Vnode
	reg    *obs.Registry // nil on untraced runs
	c      *cell
	closed bool // guarded by c.mu
}

// newClient makes a cache manager with the given cache settings and
// mounts the cell's volume.
func (c *cell) newClient(name string, o client.Options) (*benchClient, error) {
	o.Name = name
	o.User = fs.SuperUser
	o.Dial = c.dial
	o.Locate = c.locate
	o.ReconnectBackoff = time.Millisecond
	b := &benchClient{c: c}
	if c.tr != nil {
		b.reg = obs.NewRegistry()
		o.Obs = b.reg
	}
	cl, err := client.New(o)
	if err != nil {
		return nil, fmt.Errorf("client %s: %w", name, err)
	}
	b.Client = cl
	c.mu.Lock()
	c.clients = append(c.clients, b)
	c.mu.Unlock()
	fsys, err := cl.MountVolume(c.vol.ID)
	if err != nil {
		cl.Close()
		return nil, fmt.Errorf("client %s: mount: %w", name, err)
	}
	if b.root, err = fsys.Root(); err != nil {
		cl.Close()
		return nil, fmt.Errorf("client %s: root: %w", name, err)
	}
	return b, nil
}

// close shuts the client and folds its metrics into the cell totals.
func (b *benchClient) close() {
	b.c.mu.Lock()
	if b.closed {
		b.c.mu.Unlock()
		return
	}
	b.closed = true
	for i, o := range b.c.clients {
		if o == b {
			b.c.clients = append(b.c.clients[:i], b.c.clients[i+1:]...)
			break
		}
	}
	b.c.mu.Unlock()
	b.Client.Close()
	if b.reg != nil {
		b.c.mu.Lock()
		b.c.cliTotals.add(b.reg)
		b.c.mu.Unlock()
	}
}

// snapshot returns the server-side and client-side metrics so far: the
// retired registries plus the live ones.
func (c *cell) snapshot() (srv, cli totals) {
	srv, cli = newTotals(), newTotals()
	c.mu.Lock()
	defer c.mu.Unlock()
	srv.merge(c.srvTotals)
	cli.merge(c.cliTotals)
	if c.srvReg != nil {
		srv.add(c.srvReg)
	}
	for _, b := range c.clients {
		if b.reg != nil {
			cli.add(b.reg)
		}
	}
	return srv, cli
}

// shutdown closes every client, the server's associations and the
// aggregate, and folds the live registries into the totals.
func (c *cell) shutdown() {
	c.mu.Lock()
	clients := append([]*benchClient(nil), c.clients...)
	c.mu.Unlock()
	for _, b := range clients {
		b.close()
	}
	c.mu.Lock()
	side := c.side
	c.side = nil
	if c.srvReg != nil {
		c.srvTotals.add(c.srvReg)
		c.srvReg = nil
	}
	c.mu.Unlock()
	for _, nc := range side {
		nc.Close()
	}
	c.agg.Close()
}

// totals accumulates the counters and histograms of registries that are
// retired during a run (a restarted server, a closed client).
type totals struct {
	c map[string]uint64
	h map[string]*obs.HistogramSnapshot
}

func newTotals() totals {
	return totals{c: map[string]uint64{}, h: map[string]*obs.HistogramSnapshot{}}
}

func (t totals) add(reg *obs.Registry) {
	d := reg.Snapshot()
	for name, v := range d.Counters {
		t.c[name] += v
	}
	for name := range d.Histograms {
		s := reg.Histogram(name).Snapshot()
		if t.h[name] == nil {
			t.h[name] = &obs.HistogramSnapshot{}
		}
		t.h[name].Merge(s)
	}
}

func (t totals) merge(o totals) {
	for name, v := range o.c {
		t.c[name] += v
	}
	for name, s := range o.h {
		if t.h[name] == nil {
			t.h[name] = &obs.HistogramSnapshot{}
		}
		t.h[name].Merge(*s)
	}
}

func (t totals) hist(name string) obs.HistogramSnapshot {
	if s := t.h[name]; s != nil {
		return *s
	}
	return obs.HistogramSnapshot{}
}

func (t totals) p50us(name string) float64 {
	s := t.hist(name)
	if s.Count == 0 {
		return 0
	}
	return s.Quantile(0.5) / 1e3
}
