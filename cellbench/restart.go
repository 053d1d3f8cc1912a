package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"decorum/internal/client"
	"decorum/internal/vfs"
)

// Sizes of the restart workload. The base set is checkpointed in setup;
// each cycle's burst (restartBurst files of restartBurstSize bytes, 64
// KiB of data and its log records) fits in the log (restartLog blocks, 2
// MiB) and the buffer pool (restartPool blocks, 4 MiB), so nothing
// forces a checkpoint between the burst and the crash.
const (
	restartBase      = 24
	restartBaseMax   = 3 * chunk
	restartBurst     = 16
	restartBurstSize = 4 << 10
	restartLog       = 512
	restartPool      = 1024
	restartGrace     = 5 * time.Second
)

// runRestart: a loader client writes base files that are checkpointed in
// setup. In each timed cycle a new client then creates and fsyncs a burst
// of small files, forces the log (the batch commit of §2.2 having just run),
// crashes the device dropping every unsynced write, re-opens the
// aggregate (log replay, timed as replay), salvages it (which must find
// nothing to repair), restarts the server with a grace period, times the
// surviving client's reconnect and reclaim up to its first successful
// operation, and reads every base and burst file back through a second
// client that has cached nothing, so on the verified path. A burst file that is missing, short or
// wrong counts as a failed operation. The cycle ends by removing its
// burst and checkpointing, so every cycle starts from the same state.
//
// Burst contents depend on the cycle but not on the seed: the burst is
// where a known fault of the program loses data, and its failures must
// not move with the seed.
func runRestart(r *run) error {
	c, err := newCell(r.tr, cellConfig{blocks: 8192, logBlocks: restartLog, pool: restartPool, crashable: true})
	if err != nil {
		return err
	}
	r.c = c
	rng := rand.New(rand.NewSource(r.seed))
	loader, err := c.newClient("loader", client.Options{})
	if err != nil {
		return err
	}
	base := make([][]byte, restartBase)
	for f := range base {
		base[f] = content(r.seed, uint64(f), 0, 1+rng.Intn(restartBaseMax))
		if err := writeFile(r, loader.root, fmt.Sprintf("base%02d", f), base[f], chunk); err != nil {
			return fmt.Errorf("write base%02d: %w", f, err)
		}
	}
	loader.close()
	if err := c.agg.Sync(); err != nil {
		return fmt.Errorf("checkpoint base set: %w", err)
	}

	// A client made during a grace window cannot get tokens until the
	// window closes, so each cycle's two clients are made one cycle
	// ahead, before the previous crash: by their own cycle they have
	// survived a restart and reclaimed (nothing). Both are new in every
	// cycle, so every restart reclaims the same token set. The reader
	// has cached nothing, so every byte it reads comes from the server
	// on the verified path.
	newPair := func(cycle int) (survivor, reader *benchClient, err error) {
		if survivor, err = c.newClient(fmt.Sprintf("survivor%d", cycle), client.Options{}); err != nil {
			return nil, nil, err
		}
		reader, err = c.newClient(fmt.Sprintf("reader%d", cycle), client.Options{})
		return survivor, reader, err
	}
	nextSurvivor, nextReader, err := newPair(0)
	if err != nil {
		return err
	}
	var replays, reconnects samples
	r.startTimed()
	for cycle := 0; time.Now().Before(r.deadline()); cycle++ {
		survivor, reader := nextSurvivor, nextReader
		burst := make([][]byte, restartBurst)
		start := time.Now()
		for i := range burst {
			burst[i] = content(0, uint64(i), uint64(cycle), restartBurstSize)
			r.attempted++
			if err := writeFile(r, survivor.root, burstName(cycle, i), burst[i], restartBurstSize); err != nil {
				return fmt.Errorf("cycle %d: write %s: %w", cycle, burstName(cycle, i), err)
			}
		}
		r.wrote(restartBurst*restartBurstSize, time.Since(start))
		if err := c.agg.Log().Sync(); err != nil {
			return fmt.Errorf("cycle %d: force log: %w", cycle, err)
		}
		logKB := float64(c.agg.Log().Used()) / 1024
		if nextSurvivor, nextReader, err = newPair(cycle + 1); err != nil {
			return fmt.Errorf("cycle %d: %w", cycle, err)
		}

		replay, err := c.crashAndReopen()
		if err != nil {
			return fmt.Errorf("cycle %d: %w", cycle, err)
		}
		replays = append(replays, replay)
		r.replayKB += logKB
		r.replayTime += replay
		sr, err := c.agg.Salvage()
		if err != nil {
			return fmt.Errorf("cycle %d: salvage: %w", cycle, err)
		}
		if sr.OrphansFreed+sr.EntriesDropped+sr.LinkFixes != 0 {
			r.wrongf("cycle %d: salvage after replay repaired %+v", cycle, sr)
		}

		restarted := time.Now()
		for _, nc := range c.startServer(restartGrace) {
			nc.Close()
		}
		// The first operation after the restart creates a file: it needs
		// the server and a fresh token grant, so no cache can answer it.
		done := r.tr.op("client.create")
		_, err = survivor.root.Create(vfs.Superuser(), probeName(cycle), 0o644)
		done()
		if err != nil {
			return fmt.Errorf("cycle %d: surviving client's first operation after restart: %w", cycle, err)
		}
		reconnect := time.Since(restarted)
		reconnects = append(reconnects, reconnect)
		r.op(replay + reconnect)

		rstart := time.Now()
		var rbytes int64
		for f, want := range base {
			r.attempted++
			if got, err := readFile(r, reader.root, fmt.Sprintf("base%02d", f), len(want)); err != nil || !bytes.Equal(got, want) {
				r.wrongf("cycle %d: checkpointed base%02d did not survive the crash intact (err %v)", cycle, f, err)
			} else {
				rbytes += int64(len(want))
			}
		}
		// read_MBps covers the base set only: the burst's failed reads
		// end early and would make it depend on the failure count.
		r.read(rbytes, time.Since(rstart))
		for i, want := range burst {
			r.attempted++
			got, err := readFile(r, reader.root, burstName(cycle, i), len(want))
			if err != nil {
				r.fail("read back "+burstName(cycle, i), err)
				continue
			}
			if !bytes.Equal(got, want) {
				r.fail("read back "+burstName(cycle, i), fmt.Errorf("%d bytes that are not the %d acknowledged", len(got), len(want)))
				continue
			}
		}
		reader.close()

		for _, name := range append(burstNames(cycle), probeName(cycle)) {
			if err := survivor.root.Remove(vfs.Superuser(), name); err != nil && !isNotExist(err) {
				return fmt.Errorf("cycle %d: remove %s: %w", cycle, name, err)
			}
		}
		if err := survivor.FlushAll(); err != nil {
			return fmt.Errorf("cycle %d: flush: %w", cycle, err)
		}
		survivor.close()
		if err := c.agg.Sync(); err != nil {
			return fmt.Errorf("cycle %d: checkpoint: %w", cycle, err)
		}
		// Each cycle leaves an abandoned aggregate and two closed
		// clients behind; collecting them here, outside every timed
		// operation, keeps peak_rss_MB from depending on when the
		// collector happened to run.
		runtime.GC()
	}
	r.endTimed()
	r.replays = float64(len(replays))
	rs, cs := replays.sorted(), reconnects.sorted()
	r.note("replay_ms", "ms", us(rs.quantile(0.5))/1e3)
	r.note("reconnect_ms", "ms", us(cs.quantile(0.5))/1e3)
	r.note("cycles", "", float64(len(rs)))
	return nil
}

func burstName(cycle, i int) string { return fmt.Sprintf("burst%d.%02d", cycle, i) }

func burstNames(cycle int) []string {
	names := make([]string, restartBurst)
	for i := range names {
		names[i] = burstName(cycle, i)
	}
	return names
}

func probeName(cycle int) string { return fmt.Sprintf("probe%d", cycle) }

// readFile looks name up under dir and reads it whole; want is the
// length the model expects, and a longer file reads as wrong.
func readFile(r *run, dir vfs.Vnode, name string, want int) ([]byte, error) {
	done := r.tr.op("client.lookup")
	v, err := dir.Lookup(vfs.Superuser(), name)
	done()
	if err != nil {
		return nil, err
	}
	buf := make([]byte, want+1)
	n, err := readAll(r, v, buf)
	return buf[:n], err
}
