// Command cellbench is the repository's benchmark. It builds one
// in-process DEcorum cell (block device, Episode aggregate, file server,
// cache managers over net.Pipe), runs one workload for a fixed time,
// checks every result against the benchmark's own model of what the
// program must return, and prints one JSON result line:
//
//	bash cellbench/run.sh --workload bulk --seed 1 --seconds 15 --trace 0
//
// Workloads: bulk (cached chunk transfer), smallfile (metadata path),
// sharing (token revocation between two clients) and restart (log replay
// and client reconnect after a server crash). --trace 1 makes a separate
// traced run that reports per-layer metrics instead of end-to-end ones.
// README.md maps every metric to the layer and workload it measures.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// procStart approximates the process start for setup_s.
var procStart = time.Now()

// run is the state of one benchmark run.
type run struct {
	workload string
	seed     int64
	dur      time.Duration
	tr       *tracer
	c        *cell

	timedStart time.Time // the end of setup

	attempted, failed int64
	wrong             []string // correctness violations

	ops            samples // latency of each unit operation
	wBytes, rBytes int64   // user bytes written and read
	opSlots        map[int]*opSlot
	wSlots, rSlots map[int]*transfer
	setupSlots     int

	// Workload-specific results, printed by name before the JSON line.
	named []namedValue
	// Bases for per-layer ratios that only some workloads have.
	handoffs   float64
	replays    float64
	replayKB   float64
	replayTime time.Duration

	// Traced runs: layer metrics as they stood when the timed phase
	// ended (the end-of-run checks add traffic of their own).
	lsrv, lcli totals
	lwire      uint64
	lspans     map[string]spanStat
}

type namedValue struct {
	name, unit string
	v          float64
}

func (r *run) note(name, unit string, v float64) {
	r.named = append(r.named, namedValue{name, unit, v})
}

// fail counts one failed operation; the first few are reported.
func (r *run) fail(what string, err error) {
	r.failed++
	if r.failed <= 5 {
		fmt.Fprintf(os.Stderr, "cellbench: %s: %s failed: %v\n", r.workload, what, err)
	}
}

// wrongf records a result that disagrees with the benchmark's model.
func (r *run) wrongf(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if len(r.wrong) < 5 {
		fmt.Fprintf(os.Stderr, "cellbench: %s: WRONG: %s\n", r.workload, msg)
	}
	r.wrong = append(r.wrong, msg)
}

// transfer is the user bytes moved in one slot and the time the
// operations that moved them took.
type transfer struct {
	bytes int64
	d     time.Duration
}

// Rates are taken per slot: one second of the timed phase, or one call
// during setup. Each is reported as the median slot's, so a stall on a
// loaded machine moves it only if the stall covers half the slots.
func (r *run) slot() int {
	if r.timedStart.IsZero() {
		r.setupSlots++
		return -r.setupSlots
	}
	return int(time.Since(r.timedStart) / time.Second)
}

// opSlot counts the operations completed in one second of the timed
// phase and when the last of them ended.
type opSlot struct {
	n    int
	last time.Time
}

// op records one completed unit operation and its latency.
func (r *run) op(d time.Duration) {
	r.ops = append(r.ops, d)
	s := r.opSlots[r.slot()]
	if s == nil {
		s = &opSlot{}
		r.opSlots[r.slot()] = s
	}
	s.n++
	s.last = time.Now()
}

// wrote and read record n user bytes moved by operations that took d.
func (r *run) wrote(n int64, d time.Duration) {
	r.wBytes += n
	addTransfer(r.wSlots, r.slot(), n, d)
}

func (r *run) read(n int64, d time.Duration) {
	r.rBytes += n
	addTransfer(r.rSlots, r.slot(), n, d)
}

func addTransfer(m map[int]*transfer, slot int, n int64, d time.Duration) {
	t := m[slot]
	if t == nil {
		t = &transfer{}
		m[slot] = t
	}
	t.bytes += n
	t.d += d
}

// medianMBps is the median over slots of each slot's MB/s.
func medianMBps(m map[int]*transfer) float64 {
	var v []float64
	for _, t := range m {
		if t.d > 0 {
			v = append(v, mbps(t.bytes, t.d))
		}
	}
	return median(v)
}

// opsPerSecond is the median over the timed phase's seconds of the
// operations completed in each, divided by the time from the end of the
// previous second's last operation to the end of this second's last.
// The last op may end past the deadline; the part-second it ends in is
// left out.
func (r *run) opsPerSecond() float64 {
	var v []float64
	prev := r.timedStart
	for i := 0; i < int(r.dur/time.Second); i++ {
		s := r.opSlots[i]
		if s == nil {
			continue
		}
		v = append(v, float64(s.n)/s.last.Sub(prev).Seconds())
		prev = s.last
	}
	return median(v)
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	if len(v)%2 == 1 {
		return v[len(v)/2]
	}
	return (v[len(v)/2-1] + v[len(v)/2]) / 2
}

func (r *run) startTimed() {
	r.timedStart = time.Now()
}

func (r *run) deadline() time.Time { return r.timedStart.Add(r.dur) }

func (r *run) endTimed() {
	if r.tr != nil {
		r.lsrv, r.lcli = r.c.snapshot()
		r.lwire = r.c.wireIn.Load() + r.c.wireOut.Load()
		r.lspans = r.tr.totals()
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

var workloads = map[string]func(*run) error{
	"bulk":      runBulk,
	"smallfile": runSmallFile,
	"sharing":   runSharing,
	"restart":   runRestart,
}

func main() {
	workload := flag.String("workload", "", "bulk|smallfile|sharing|restart")
	seed := flag.Int64("seed", 1, "input seed: the same seed makes the same inputs")
	seconds := flag.Int("seconds", 10, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 makes a traced run that reports per-layer metrics")
	flag.Parse()
	fn, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: cellbench --workload bulk|smallfile|sharing|restart --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	r := &run{
		workload: *workload, seed: *seed, dur: time.Duration(*seconds) * time.Second,
		opSlots: map[int]*opSlot{}, wSlots: map[int]*transfer{}, rSlots: map[int]*transfer{},
	}
	if *trace == 1 {
		r.tr = newTracer()
	}
	err := fn(r)
	if r.c != nil {
		r.c.shutdown()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "cellbench: %s: %v\n", r.workload, err)
		os.Exit(1)
	}
	if r.attempted < 1 {
		fmt.Fprintf(os.Stderr, "cellbench: %s: no operation attempted\n", r.workload)
		os.Exit(1)
	}
	res := result{Correct: len(r.wrong) == 0, Attempted: r.attempted, Failed: r.failed}
	if r.tr == nil {
		res.Metrics = r.endToEnd()
	} else {
		res.Metrics = r.perLayer()
		path := filepath.Join("cellbench", "out", fmt.Sprintf("spans-%s-%d.jsonl", r.workload, r.seed))
		if err := r.tr.write(path); err != nil {
			fmt.Fprintf(os.Stderr, "cellbench: writing spans: %v\n", err)
		}
	}
	var line strings.Builder
	fmt.Fprintf(&line, "%s seed=%d ops=%d", r.workload, r.seed, len(r.ops))
	for _, nv := range r.named {
		fmt.Fprintf(&line, " %s=%s", nv.name, strconv.FormatFloat(nv.v, 'f', -1, 64))
		if nv.unit != "" {
			fmt.Fprintf(&line, "[%s]", nv.unit)
		}
	}
	fmt.Println(line.String())
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cellbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// endToEnd computes the metrics a user of the cell would see. Every
// workload reports all of them; what a "unit operation" is differs per
// workload (README.md).
func (r *run) endToEnd() map[string]metric {
	s := r.ops.sorted()
	m := map[string]metric{
		"setup_s":     {r.timedStart.Sub(procStart).Seconds(), "s"},
		"peak_rss_MB": {peakRSSMB(), "MB"},
		"ops_per_s":   {r.opsPerSecond(), "1/s"},
		"op_p50_us":   {us(s.quantile(0.5)), "us"},
		"write_MBps":  {medianMBps(r.wSlots), "MB/s"},
		"read_MBps":   {medianMBps(r.rSlots), "MB/s"},
	}
	return m
}

func mbps(n int64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(n) / (1 << 20) / d.Seconds()
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, ln := range strings.Split(string(b), "\n") {
		if f := strings.Fields(ln); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}
