package main

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"decorum/internal/blockdev"
)

// tracer records spans at the layer boundaries the benchmark owns: each
// client vnode call (the op span), each Read and Write on an association
// conn handed out by the cell's Dial, and each call into the block device.
// Conn and device spans name the op span that was open when they began
// as their parent; ops run one at a time, so that is the op that caused
// them (a read-ahead fetch still in flight when the next op starts is
// charged to that op). Totals per span name are kept for the whole run;
// the most recent spans are kept in a ring and written out at the end.
// A nil *tracer records nothing.
type tracer struct {
	start  time.Time
	nextID atomic.Uint64
	curOp  atomic.Uint64 // id of the open op span, 0 between ops

	mu    sync.Mutex
	ring  []span               // guarded by mu
	next  int                  // guarded by mu
	names map[string]*spanStat // guarded by mu
}

type span struct {
	Name   string `json:"name"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanStat totals the spans of one name.
type spanStat struct {
	n     uint64
	total time.Duration
	bytes uint64
}

const ringSpans = 1 << 15

func newTracer() *tracer {
	return &tracer{start: time.Now(), ring: make([]span, 0, ringSpans), names: make(map[string]*spanStat)}
}

// op opens the span of one client vnode call; the returned func closes
// it.
func (t *tracer) op(name string) func() {
	if t == nil {
		return func() {}
	}
	id := t.nextID.Add(1)
	t.curOp.Store(id)
	start := time.Now()
	return func() {
		t.curOp.Store(0)
		t.record(name, id, 0, start, 0)
	}
}

// child records a finished span under the op open when it began.
func (t *tracer) child(name string, parent uint64, start time.Time, bytes int) {
	t.record(name, t.nextID.Add(1), parent, start, bytes)
}

func (t *tracer) record(name string, id, parent uint64, start time.Time, bytes int) {
	end := time.Now()
	d := end.Sub(start)
	t.mu.Lock()
	st := t.names[name]
	if st == nil {
		st = &spanStat{}
		t.names[name] = st
	}
	st.n++
	st.total += d
	st.bytes += uint64(bytes)
	s := span{Name: name, ID: id, Parent: parent, Start: start.Sub(t.start).Nanoseconds(), End: end.Sub(t.start).Nanoseconds()}
	if len(t.ring) < ringSpans {
		t.ring = append(t.ring, s)
	} else {
		t.ring[t.next] = s
	}
	t.next = (t.next + 1) % ringSpans
	t.mu.Unlock()
}

// totals copies the per-name span totals.
func (t *tracer) totals() map[string]spanStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]spanStat, len(t.names))
	for name, st := range t.names {
		out[name] = *st
	}
	return out
}

// write dumps the span ring, one JSON object a line, oldest first.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	t.mu.Lock()
	n := len(t.ring)
	for i := 0; i < n; i++ {
		s := t.ring[(t.next+i)%n]
		fmt.Fprintf(w, "{\"name\":%q,\"id\":%d,\"parent\":%d,\"start_ns\":%d,\"end_ns\":%d}\n", s.Name, s.ID, s.Parent, s.Start, s.End)
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// meteredConn wraps the client side of an association: it counts the
// bytes crossing it (for the cross-check against the program's own
// rpc.bytes_in/bytes_out) and records a span around every Write. Reads
// are counted but not spanned: the peer's reader goroutine sits in Read
// between frames, so a read span would measure idleness.
type meteredConn struct {
	net.Conn
	t       *tracer
	in, out *atomic.Uint64
}

func (c meteredConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.in.Add(uint64(n))
	return n, err
}

func (c meteredConn) Write(p []byte) (int, error) {
	parent := c.t.curOp.Load()
	start := time.Now()
	n, err := c.Conn.Write(p)
	c.out.Add(uint64(n))
	c.t.child("conn.write", parent, start, n)
	return n, err
}

// tracedDevice wraps the server's block device: counts, bytes and busy
// time of every Read, Write and Sync.
type tracedDevice struct {
	blockdev.Device
	t *tracer
}

func (d tracedDevice) Read(n int64, p []byte) error {
	parent := d.t.curOp.Load()
	start := time.Now()
	err := d.Device.Read(n, p)
	d.t.child("blockdev.read", parent, start, len(p))
	return err
}

func (d tracedDevice) Write(n int64, p []byte) error {
	parent := d.t.curOp.Load()
	start := time.Now()
	err := d.Device.Write(n, p)
	d.t.child("blockdev.write", parent, start, len(p))
	return err
}

func (d tracedDevice) Sync() error {
	parent := d.t.curOp.Load()
	start := time.Now()
	err := d.Device.Sync()
	d.t.child("blockdev.sync", parent, start, 0)
	return err
}
