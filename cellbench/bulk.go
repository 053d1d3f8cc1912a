package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"decorum/internal/client"
	"decorum/internal/vfs"
)

// Sizes of the bulk workload. The working set (bulkFiles × bulkChunks
// chunks of 64 KiB, 24 MiB) is six times the scanning client's chunk
// cache and six times the server's buffer pool, so every scan pass moves
// the whole set over the association and through the pool.
const (
	bulkFiles       = 12
	bulkChunks      = 32
	bulkCacheChunks = 64   // scanning client's CacheChunks: 4 MiB
	bulkPool        = 1024 // server buffer pool: 4 MiB
	chunk           = client.ChunkSize
)

type fsyncer interface{ Fsync() error }

// runBulk: in setup one client writes and fsyncs the file set and
// closes; a second client then scans the set sequentially, pass after
// pass, until the time is up. The writer is closed first so that the scan
// measures the data path, not the revocation of the writer's tokens. The
// unit operation is one 64 KiB demand read.
func runBulk(r *run) error {
	c, err := newCell(r.tr, cellConfig{blocks: 16384, logBlocks: 512, pool: bulkPool})
	if err != nil {
		return err
	}
	r.c = c
	want := make([][]byte, bulkFiles)
	for f := range want {
		want[f] = content(r.seed, uint64(f), 1, bulkChunks*chunk)
	}
	writer, err := c.newClient("writer", client.Options{})
	if err != nil {
		return err
	}
	scanner, err := c.newClient("scanner", client.Options{CacheChunks: bulkCacheChunks})
	if err != nil {
		return err
	}
	ctx := vfs.Superuser()

	// Write phase, in setup: whole files in 256 KiB writes, each file
	// fsynced. It is timed on its own as write_MBps.
	for f := 0; f < bulkFiles; f++ {
		r.attempted++
		start := time.Now()
		err := writeFile(r, writer.root, fmt.Sprintf("bulk%02d", f), want[f], 4*chunk)
		if err != nil {
			r.fail("write", err)
			continue
		}
		r.wrote(int64(len(want[f])), time.Since(start))
	}
	writer.close()
	r.startTimed()

	// Scan phase: a seeded file order per pass, each file read front to
	// back in 64 KiB reads so read-ahead sees a sequential stream.
	files := make([]vfs.Vnode, bulkFiles)
	for f := range files {
		done := r.tr.op("client.lookup")
		files[f], err = scanner.root.Lookup(ctx, fmt.Sprintf("bulk%02d", f))
		done()
		if err != nil {
			return fmt.Errorf("scanner lookup: %w", err)
		}
	}
	rng := rand.New(rand.NewSource(r.seed))
	buf := make([]byte, chunk)
	passes := 0
	for time.Now().Before(r.deadline()) {
		for _, f := range rng.Perm(bulkFiles) {
			for i := 0; i < bulkChunks; i++ {
				r.attempted++
				done := r.tr.op("client.read")
				start := time.Now()
				n, err := files[f].Read(ctx, buf, int64(i)*chunk)
				d := time.Since(start)
				done()
				if err != nil {
					r.fail("read", err)
					continue
				}
				r.op(d)
				r.read(int64(n), d)
				if !bytes.Equal(buf[:n], want[f][i*chunk:(i+1)*chunk]) {
					r.wrongf("bulk%02d chunk %d: read %d bytes that differ from what was written", f, i, n)
				}
			}
		}
		passes++
	}
	r.endTimed()
	s := r.ops.sorted()
	r.note("write_MBps", "MB/s", medianMBps(r.wSlots))
	r.note("scan_MBps", "MB/s", medianMBps(r.rSlots))
	r.note("chunk_read_p50_us", "us", us(s.quantile(0.5)))
	r.note("chunk_read_p99_us", "us", us(s.quantile(tailQ(len(s)))))
	r.note("scan_passes", "", float64(passes))
	return nil
}

// writeFile creates name under dir, writes data in pieces of at most
// step bytes, and fsyncs it.
func writeFile(r *run, dir vfs.Vnode, name string, data []byte, step int) error {
	ctx := vfs.Superuser()
	done := r.tr.op("client.create")
	f, err := dir.Create(ctx, name, 0o644)
	done()
	if err != nil {
		return err
	}
	if err := writeAll(r, f, data, step); err != nil {
		return err
	}
	return fsync(r, f)
}

func writeAll(r *run, f vfs.Vnode, data []byte, step int) error {
	ctx := vfs.Superuser()
	for off := 0; off < len(data); off += step {
		end := off + step
		if end > len(data) {
			end = len(data)
		}
		done := r.tr.op("client.write")
		_, err := f.Write(ctx, data[off:end], int64(off))
		done()
		if err != nil {
			return err
		}
	}
	return nil
}

func fsync(r *run, f vfs.Vnode) error {
	fs, ok := f.(fsyncer)
	if !ok {
		return fmt.Errorf("vnode %T has no Fsync", f)
	}
	done := r.tr.op("client.fsync")
	defer done()
	return fs.Fsync()
}
