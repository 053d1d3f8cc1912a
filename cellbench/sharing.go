package main

import (
	"bytes"
	"fmt"
	"time"

	"decorum/internal/client"
	"decorum/internal/vfs"
)

// Sizes of the sharing workload: a few files of shareChunks chunks each,
// handed back and forth between two clients.
const (
	shareFiles  = 4
	shareChunks = 8
)

// runSharing: two clients take turns. In handoff i one of them rewrites
// a whole file with version i and fsyncs it, then the other reads the
// whole file, which must return version i (§5's single-system
// semantics). Every handoff so revokes the reader's tokens on the write
// and the writer's on the read, with a store-back (§5.5). The two run in
// lockstep on one goroutine. The unit operation is one handoff.
func runSharing(r *run) error {
	c, err := newCell(r.tr, cellConfig{blocks: 4096, logBlocks: 512, pool: 1024})
	if err != nil {
		return err
	}
	r.c = c
	var cl [2]*benchClient
	var files [2][shareFiles]vfs.Vnode
	for i := range cl {
		if cl[i], err = c.newClient(fmt.Sprintf("share%d", i), client.Options{}); err != nil {
			return err
		}
	}
	ctx := vfs.Superuser()
	size := shareChunks * chunk
	for f := 0; f < shareFiles; f++ {
		name := fmt.Sprintf("shared%d", f)
		if err := writeFile(r, cl[0].root, name, content(r.seed, uint64(f), 0, size), size); err != nil {
			return fmt.Errorf("create %s: %w", name, err)
		}
		for i := range cl {
			if files[i][f], err = cl[i].root.Lookup(ctx, name); err != nil {
				return fmt.Errorf("lookup %s: %w", name, err)
			}
		}
	}
	buf := make([]byte, size)
	r.startTimed()
	for h := 0; time.Now().Before(r.deadline()); h++ {
		f := h % shareFiles
		w, rd := h%2, 1-h%2
		// Version h+1 of file f: the version 0 written in setup stays
		// distinct from every handoff's.
		data := content(r.seed, uint64(f), uint64(h+1), size)
		r.attempted += 2
		start := time.Now()
		err := writeAll(r, files[w][f], data, size)
		if err == nil {
			err = fsync(r, files[w][f])
		}
		mid := time.Now()
		if err != nil {
			r.fail("write+fsync", err)
			r.failed++ // the read of this handoff is not attempted
			continue
		}
		r.wrote(int64(size), mid.Sub(start))
		n, err := readAll(r, files[rd][f], buf)
		end := time.Now()
		if err != nil {
			r.fail("read", err)
			continue
		}
		r.read(int64(n), end.Sub(mid))
		r.op(end.Sub(start))
		if n != size || !bytes.Equal(buf[:n], data) {
			r.wrongf("handoff %d: client %d read %d bytes of shared%d that are not the version client %d just wrote", h, rd, n, f, w)
		}
	}
	r.endTimed()
	r.handoffs = float64(len(r.ops))
	s := r.ops.sorted()
	r.note("handoffs_per_s", "1/s", r.opsPerSecond())
	r.note("handoff_p50_us", "us", us(s.quantile(0.5)))
	r.note("handoff_p99_us", "us", us(s.quantile(tailQ(len(s)))))
	return nil
}

// readAll reads f from offset 0 in 64 KiB reads until buf is full or EOF.
func readAll(r *run, f vfs.Vnode, buf []byte) (int, error) {
	ctx := vfs.Superuser()
	total := 0
	for total < len(buf) {
		end := total + chunk
		if end > len(buf) {
			end = len(buf)
		}
		done := r.tr.op("client.read")
		n, err := f.Read(ctx, buf[total:end], int64(total))
		done()
		if err != nil {
			return total, err
		}
		if n == 0 {
			break
		}
		total += n
	}
	return total, nil
}
