package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"decorum/internal/client"
	"decorum/internal/vfs"
)

// Sizes of the smallfile workload: a tree three directories deep
// (sfFanout³ leaf directories under sfFanout² and sfFanout inner ones),
// pre-populated with sfPerDir files per leaf, more files than the
// client's vnode table holds (sfMaxVnodes).
const (
	sfFanout    = 4
	sfPerDir    = 10
	sfMaxSize   = 8 << 10
	sfMaxVnodes = 256
	sfCache     = 512 // client chunk cache, 32 MiB
)

// sfFile is the benchmark's model of one file: where it is and what it
// holds (content(seed, id, 0, size)).
type sfFile struct {
	dir  string
	name string
	id   uint64
	size int
}

// sfModel is the benchmark's own view of the tree.
type sfModel struct {
	seed   int64
	leaves []string                      // leaf directory paths
	dirs   map[string]map[string]*sfFile // leaf path → name → file
	live   []*sfFile
	nextID uint64
}

func (m *sfModel) add(dir string, size int) *sfFile {
	m.nextID++
	f := &sfFile{dir: dir, name: fmt.Sprintf("f%d", m.nextID), id: m.nextID, size: size}
	m.dirs[dir][f.name] = f
	m.live = append(m.live, f)
	return f
}

func (m *sfModel) remove(i int) {
	f := m.live[i]
	delete(m.dirs[f.dir], f.name)
	m.live[i] = m.live[len(m.live)-1]
	m.live = m.live[:len(m.live)-1]
}

func (m *sfModel) data(f *sfFile) []byte { return content(m.seed, f.id, 0, f.size) }

// runSmallFile: one client runs a seeded mix of create+write,
// lookup+stat+read, rename, readdir and unlink over the tree, resolving
// every path from the root. No fsync: written data stays in the client's
// cache until a token revocation calls it back. The unit operation is
// one op of the mix.
func runSmallFile(r *run) error {
	c, err := newCell(r.tr, cellConfig{blocks: 8192, logBlocks: 512, pool: 2048})
	if err != nil {
		return err
	}
	r.c = c
	rng := rand.New(rand.NewSource(r.seed))
	m := &sfModel{seed: r.seed, dirs: map[string]map[string]*sfFile{}}

	// Setup: a loader client builds the tree, flushes and closes.
	loader, err := c.newClient("loader", client.Options{})
	if err != nil {
		return err
	}
	ctx := vfs.Superuser()
	for a := 0; a < sfFanout; a++ {
		da, err := loader.root.Mkdir(ctx, fmt.Sprintf("a%d", a), 0o755)
		if err != nil {
			return fmt.Errorf("mkdir: %w", err)
		}
		for b := 0; b < sfFanout; b++ {
			db, err := da.Mkdir(ctx, fmt.Sprintf("b%d", b), 0o755)
			if err != nil {
				return fmt.Errorf("mkdir: %w", err)
			}
			for cc := 0; cc < sfFanout; cc++ {
				dc, err := db.Mkdir(ctx, fmt.Sprintf("c%d", cc), 0o755)
				if err != nil {
					return fmt.Errorf("mkdir: %w", err)
				}
				leaf := fmt.Sprintf("a%d/b%d/c%d", a, b, cc)
				m.leaves = append(m.leaves, leaf)
				m.dirs[leaf] = map[string]*sfFile{}
				for i := 0; i < sfPerDir; i++ {
					f := m.add(leaf, 1+rng.Intn(sfMaxSize))
					v, err := dc.Create(ctx, f.name, 0o644)
					if err == nil {
						_, err = v.Write(ctx, m.data(f), 0)
					}
					if err != nil {
						return fmt.Errorf("populate %s/%s: %w", leaf, f.name, err)
					}
				}
			}
		}
	}
	if err := loader.FlushAll(); err != nil {
		return fmt.Errorf("populate flush: %w", err)
	}
	loader.close()
	meta, err := c.newClient("meta", client.Options{MaxVnodes: sfMaxVnodes, CacheChunks: sfCache})
	if err != nil {
		return err
	}

	buf := make([]byte, sfMaxSize)
	r.startTimed()
	for time.Now().Before(r.deadline()) {
		r.attempted++
		p := rng.Intn(100)
		start := time.Now()
		var err error
		var what string
		switch {
		case p < 20: // create + write
			what = "create+write"
			leaf := m.leaves[rng.Intn(len(m.leaves))]
			f := m.add(leaf, 1+rng.Intn(sfMaxSize))
			err = sfCreate(r, meta.root, f, m.data(f))
			if err == nil {
				r.wrote(int64(f.size), time.Since(start))
			}
		case p < 55: // lookup + stat + read
			what = "lookup+stat+read"
			f := m.live[rng.Intn(len(m.live))]
			var n int
			n, err = sfRead(r, meta.root, f, buf)
			if err == nil {
				r.read(int64(n), time.Since(start))
				if !bytes.Equal(buf[:n], m.data(f)) {
					r.wrongf("%s/%s: read %d bytes that are not what was written (%d)", f.dir, f.name, n, f.size)
				}
			}
		case p < 65: // rename into another leaf
			what = "rename"
			i := rng.Intn(len(m.live))
			f := m.live[i]
			to := m.leaves[rng.Intn(len(m.leaves))]
			m.nextID++
			newName := fmt.Sprintf("r%d", m.nextID)
			err = sfRename(r, meta.root, f, to, newName)
			if err == nil {
				delete(m.dirs[f.dir], f.name)
				f.dir, f.name = to, newName
				m.dirs[to][newName] = f
			}
		case p < 80: // readdir
			what = "readdir"
			leaf := m.leaves[rng.Intn(len(m.leaves))]
			var names []string
			names, err = sfReadDir(r, meta.root, leaf)
			if err == nil {
				if want := m.names(leaf); strings.Join(names, "/") != strings.Join(want, "/") {
					r.wrongf("readdir %s: got %d names, model has %d", leaf, len(names), len(want))
				}
			}
		default: // unlink
			what = "unlink"
			i := rng.Intn(len(m.live))
			f := m.live[i]
			err = sfRemove(r, meta.root, f)
			if err == nil {
				m.remove(i)
			}
		}
		d := time.Since(start)
		if err != nil {
			r.fail(what, err)
			continue
		}
		r.op(d)
	}
	r.endTimed()
	s := r.ops.sorted()
	r.note("meta_ops_per_s", "1/s", r.opsPerSecond())
	r.note("meta_op_p50_us", "us", us(s.quantile(0.5)))
	r.note("meta_op_p99_us", "us", us(s.quantile(tailQ(len(s)))))
	r.note("files", "", float64(len(m.live)))

	// The tree must match the model seen through a fresh client and
	// through the server's local mount of the same volume.
	fresh, err := c.newClient("checker", client.Options{})
	if err != nil {
		return err
	}
	sfVerifyTree(r, fresh.root, m, "fresh client")
	fresh.close()
	local, err := c.server().LocalFS(c.vol.ID)
	if err != nil {
		return fmt.Errorf("local mount: %w", err)
	}
	lroot, err := local.Root()
	if err != nil {
		return fmt.Errorf("local root: %w", err)
	}
	sfVerifyTree(r, lroot, m, "server local mount")
	return nil
}

func (m *sfModel) names(leaf string) []string {
	out := make([]string, 0, len(m.dirs[leaf]))
	for n := range m.dirs[leaf] {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// walk resolves a slash-separated path from root, one Lookup per
// component (the client's name cache answers most of them).
func walk(r *run, root vfs.Vnode, path string) (vfs.Vnode, error) {
	v := root
	for _, part := range strings.Split(path, "/") {
		done := r.tr.op("client.lookup")
		next, err := v.Lookup(vfs.Superuser(), part)
		done()
		if err != nil {
			return nil, fmt.Errorf("lookup %s in %s: %w", part, path, err)
		}
		v = next
	}
	return v, nil
}

func sfCreate(r *run, root vfs.Vnode, f *sfFile, data []byte) error {
	dir, err := walk(r, root, f.dir)
	if err != nil {
		return err
	}
	done := r.tr.op("client.create")
	v, err := dir.Create(vfs.Superuser(), f.name, 0o644)
	done()
	if err != nil {
		return err
	}
	return writeAll(r, v, data, len(data))
}

func sfRead(r *run, root vfs.Vnode, f *sfFile, buf []byte) (int, error) {
	v, err := walk(r, root, f.dir+"/"+f.name)
	if err != nil {
		return 0, err
	}
	done := r.tr.op("client.attr")
	attr, err := v.Attr(vfs.Superuser())
	done()
	if err != nil {
		return 0, err
	}
	if attr.Length != int64(f.size) {
		r.wrongf("%s/%s: length %d, model says %d", f.dir, f.name, attr.Length, f.size)
	}
	done = r.tr.op("client.read")
	n, err := v.Read(vfs.Superuser(), buf[:f.size], 0)
	done()
	return n, err
}

func sfRename(r *run, root vfs.Vnode, f *sfFile, to, newName string) error {
	from, err := walk(r, root, f.dir)
	if err != nil {
		return err
	}
	dst, err := walk(r, root, to)
	if err != nil {
		return err
	}
	done := r.tr.op("client.rename")
	defer done()
	return from.Rename(vfs.Superuser(), f.name, dst, newName)
}

func sfReadDir(r *run, root vfs.Vnode, leaf string) ([]string, error) {
	dir, err := walk(r, root, leaf)
	if err != nil {
		return nil, err
	}
	done := r.tr.op("client.readdir")
	ents, err := dir.ReadDir(vfs.Superuser())
	done()
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		if e.Name != "." && e.Name != ".." {
			names = append(names, e.Name)
		}
	}
	sort.Strings(names)
	return names, nil
}

func sfRemove(r *run, root vfs.Vnode, f *sfFile) error {
	dir, err := walk(r, root, f.dir)
	if err != nil {
		return err
	}
	done := r.tr.op("client.remove")
	defer done()
	return dir.Remove(vfs.Superuser(), f.name)
}

// sfVerifyTree walks the whole tree under root and compares every
// directory listing, length and byte with the model.
func sfVerifyTree(r *run, root vfs.Vnode, m *sfModel, via string) {
	ctx := vfs.Superuser()
	buf := make([]byte, sfMaxSize)
	for _, leaf := range m.leaves {
		dir, err := walk(r, root, leaf)
		if err != nil {
			r.wrongf("%s: %v", via, err)
			continue
		}
		ents, err := dir.ReadDir(ctx)
		if err != nil {
			r.wrongf("%s: readdir %s: %v", via, leaf, err)
			continue
		}
		var names []string
		for _, e := range ents {
			if e.Name != "." && e.Name != ".." {
				names = append(names, e.Name)
			}
		}
		sort.Strings(names)
		if want := m.names(leaf); strings.Join(names, "/") != strings.Join(want, "/") {
			r.wrongf("%s: %s lists %d names, model has %d", via, leaf, len(names), len(want))
		}
		for _, name := range m.names(leaf) {
			f := m.dirs[leaf][name]
			v, err := dir.Lookup(ctx, name)
			if err != nil {
				r.wrongf("%s: lookup %s/%s: %v", via, leaf, name, err)
				continue
			}
			attr, err := v.Attr(ctx)
			if err != nil || attr.Length != int64(f.size) {
				r.wrongf("%s: %s/%s: length %d (err %v), model says %d", via, leaf, name, attr.Length, err, f.size)
				continue
			}
			n, err := v.Read(ctx, buf[:f.size], 0)
			if err != nil || !bytes.Equal(buf[:n], m.data(f)) {
				r.wrongf("%s: %s/%s: content differs from the model (read %d bytes, err %v)", via, leaf, name, n, err)
			}
		}
	}
}
