package main

import (
	"fmt"
	"os"
	"strings"
)

// perLayer computes the per-layer metrics of a traced run from the
// program's obs registries (server side and client side, attached through
// the public Obs options) and from the benchmark's own spans. Ratios over
// work a workload does not do read 0. README.md names, for each, the
// end-to-end metric it should move and on which workload.
func (r *run) perLayer() map[string]metric {
	srv, cli, sp := r.lsrv, r.lcli, r.lspans
	units := float64(len(r.ops))
	const mib = 1 << 20
	readMB := float64(r.rBytes) / mib
	userMB := float64(r.wBytes+r.rBytes) / mib
	cf := func(t totals, name string) float64 { return float64(t.c[name]) }

	var opTime float64 // ns inside client vnode calls
	for name, st := range sp {
		if strings.HasPrefix(name, "client.") {
			opTime += float64(st.total)
		}
	}
	callNs := cli.hist("rpc.call_ns")
	serveNs := srv.hist("rpc.serve_ns")
	// The client's self time per op: mean op span less its calls, each
	// taken at the median call time. Asynchronous calls (read-ahead,
	// write-back) can outlast the ops that issued them; where they do,
	// the estimate reads 0.
	callsPerOp := ratio(cf(cli, "rpc.calls_sent"), units)
	selfUs := ratio(opTime/1e3, units) - callsPerOp*cli.p50us("rpc.call_ns")
	if selfUs < 0 {
		selfUs = 0
	}
	fetches := float64(cli.hist("client.fetch_ns").Count)
	devBusy := sp["blockdev.read"].total + sp["blockdev.write"].total + sp["blockdev.sync"].total

	m := map[string]metric{
		"client.prefetch_hit_ratio":      {ratio(cf(cli, "client.prefetch_hits"), cf(cli, "client.prefetch_issued")), "ratio"},
		"client.fetch_p50_us":            {cli.p50us("client.fetch_ns"), "us"},
		"client.demand_fetches_per_MB":   {ratio(fetches-cf(cli, "client.prefetch_issued"), readMB), "1/MB"},
		"client.store_p50_us":            {cli.p50us("client.store_ns"), "us"},
		"client.lookup_hit_ratio":        {ratio(cf(cli, "client.lookup_hits"), cf(cli, "client.lookup_hits")+cf(cli, "client.lookup_misses")), "ratio"},
		"client.attr_hit_ratio":          {ratio(cf(cli, "client.attr_cache_hits"), cf(cli, "client.attr_cache_hits")+cf(cli, "client.attr_cache_misses")), "ratio"},
		"client.vnode_evictions":         {cf(cli, "client.vnode_evictions"), "count"},
		"client.self_us_per_op":          {selfUs, "us"},
		"client.store_backs_per_handoff": {ratio(cf(cli, "client.store_backs"), r.handoffs), "1/handoff"},

		"integrity.verify_us_per_chunk": {ratio(float64(cli.hist("integrity.verify_ns").SumNs)/1e3, cf(cli, "integrity.verified_chunks")), "us"},
		"integrity.verified_chunks":     {cf(cli, "integrity.verified_chunks"), "count"},

		"rpc.calls_per_op":         {callsPerOp, "calls/op"},
		"rpc.wire_bytes_per_op":    {ratio(float64(r.lwire), units), "B/op"},
		"rpc.bin_lane_share":       {ratio(cf(cli, "rpc.lane_bin_sent"), cf(cli, "rpc.calls_sent")), "ratio"},
		"rpc.call_p50_us":          {cli.p50us("rpc.call_ns"), "us"},
		"rpc.serve_p50_us":         {srv.p50us("rpc.serve_ns"), "us"},
		"rpc.dispatch_us_per_call": {(callNs.Mean() - serveNs.Mean()) / 1e3, "us"},

		"token.grants_per_op":           {ratio(cf(srv, "token.grants"), units), "1/op"},
		"token.grant_p50_us":            {srv.p50us("token.grant_ns"), "us"},
		"token.revocations_per_handoff": {ratio(cf(srv, "token.revocations"), r.handoffs), "1/handoff"},
		"token.revoke_rtt_p50_us":       {srv.p50us("token.revoke_rtt_ns"), "us"},

		"wal.appends_per_op":     {ratio(cf(srv, "wal.appends"), units), "1/op"},
		"wal.commit_p50_us":      {srv.p50us("wal.commit_ns"), "us"},
		"wal.group_commit_ratio": {ratio(cf(srv, "wal.group_commits"), cf(srv, "wal.flushes")), "ratio"},
		"wal.replayed_KB":        {ratio(r.replayKB, r.replays), "KB"},
		"wal.replay_us_per_KB":   {ratio(us(r.replayTime), r.replayKB), "us/KB"},

		"buffer.hit_ratio":       {ratio(cf(srv, "buffer.hits"), cf(srv, "buffer.hits")+cf(srv, "buffer.misses")), "ratio"},
		"buffer.destages_per_MB": {ratio(cf(srv, "buffer.destages"), userMB), "1/MB"},
		"buffer.destage_p50_us":  {srv.p50us("buffer.destage_ns"), "us"},

		"blockdev.read_MB":                   {float64(sp["blockdev.read"].bytes) / mib, "MB"},
		"blockdev.write_bytes_per_user_byte": {ratio(float64(sp["blockdev.write"].bytes), float64(r.wBytes)), "B/B"},
		"blockdev.busy_ms":                   {float64(devBusy) / 1e6, "ms"},
		"blockdev.syncs":                     {float64(sp["blockdev.sync"].n), "count"},

		"recovery.reconnect_p50_ms": {cli.p50us("recovery.reconnect_ns") / 1e3, "ms"},
		"recovery.reclaimed_tokens": {cf(cli, "recovery.reclaimed_tokens"), "count"},
	}
	r.crossCheck()
	return m
}

// crossCheck compares totals counted twice, once by the benchmark and
// once by the program, after every client has closed: the bytes the
// benchmark's conn wrapper saw against the clients' rpc.bytes_in and
// rpc.bytes_out, and (on sharing) the revocations the server's token
// manager issued against those the clients handled. A disagreement makes
// the run incorrect.
func (r *run) crossCheck() {
	c := r.c
	c.mu.Lock()
	srv, cli := newTotals(), newTotals()
	srv.merge(c.srvTotals)
	cli.merge(c.cliTotals)
	c.mu.Unlock()
	in, out := c.wireIn.Load(), c.wireOut.Load()
	fmt.Fprintf(os.Stderr, "cellbench: cross-check wire: conn wrapper in=%d out=%d, rpc.bytes_in=%d rpc.bytes_out=%d\n",
		in, out, cli.c["rpc.bytes_in"], cli.c["rpc.bytes_out"])
	if in != cli.c["rpc.bytes_in"] || out != cli.c["rpc.bytes_out"] {
		r.wrongf("wire bytes: conn wrapper counted in=%d out=%d, clients' rpc.bytes_in=%d rpc.bytes_out=%d",
			in, out, cli.c["rpc.bytes_in"], cli.c["rpc.bytes_out"])
	}
	if r.workload == "sharing" {
		issued, handled := srv.c["token.revocations"], cli.c["client.revocations"]
		fmt.Fprintf(os.Stderr, "cellbench: cross-check revocations: token manager issued %d, clients handled %d\n", issued, handled)
		if issued != handled {
			r.wrongf("revocations: token manager issued %d, clients handled %d", issued, handled)
		}
	}
}
