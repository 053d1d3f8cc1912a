package main

import (
	"encoding/binary"
	"math"
	"sort"
	"time"
)

// content returns the bytes of version ver of file file under seed: a
// splitmix64 stream keyed by all three, so every file and every version
// differs, and the benchmark can recompute what any read must return
// without asking the program.
func content(seed int64, file, ver uint64, size int) []byte {
	p := make([]byte, (size+7)&^7)
	x := uint64(seed)*0x9e3779b97f4a7c15 ^ file<<20 ^ ver<<44 ^ 0x5851f42d4c957f2d
	for i := 0; i < len(p); i += 8 {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		binary.LittleEndian.PutUint64(p[i:], z^z>>31)
	}
	return p[:size]
}

// samples collects operation latencies.
type samples []time.Duration

func (s samples) sorted() samples {
	c := append(samples(nil), s...)
	sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	return c
}

// quantile reads the q-quantile of a sorted sample (nearest rank).
func (s samples) quantile(q float64) time.Duration {
	if len(s) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// tailQ is the highest quantile, at most 0.99, that leaves at least ten
// samples beyond it; with fewer than forty samples there is no tail and
// the median is reported in its place.
func tailQ(n int) float64 {
	if n < 40 {
		return 0.5
	}
	q := 1 - 10/float64(n)
	if q > 0.99 {
		q = 0.99
	}
	return q
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// ratio is a/b, or 0 when b is 0 (a layer that did no such work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
