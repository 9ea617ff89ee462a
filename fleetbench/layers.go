package main

import (
	"sort"
)

// layerMetrics turns the traced run into per-layer numbers. res is
// the untraced replay of the same invocation (queueing, tail and
// runtime figures undistorted by tracing); res2 and sk2 are the traced
// replay; sc scores the untraced estimates.
func layerMetrics(in *inputs, log *spanLog, s2 *server, res, res2 *replayResult, sc score, sk2 *sink, t tally) map[string]metric {
	spans := log.recorded()
	lt := summarize(spans, nil)
	// The reference replay covers whole streams; its shares count only
	// requests due after the warm-up, like the timed replay.
	refWindow := func(sp span) bool {
		fs := &in.sessions[sp.sess]
		return fs.startNs+int64(in.streams[fs.stream].events[sp.seq].t*1e9) >= warmupNs
	}
	wt := summarize(spans, func(sp span) bool {
		switch sp.name {
		case spSanitize, spPushCSI, spMatch, spPushIMU, spPushCamera:
			return refWindow(sp)
		}
		return false
	})
	us := func(name uint8) float64 { // mean call time, µs
		if lt[name].calls == 0 {
			return 0
		}
		return float64(lt[name].total) / float64(lt[name].calls) / 1e3
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	frames := float64(in.timedFrames)
	m := map[string]metric{}
	put := func(name, unit string, v float64) { m[name] = metric{v, unit} }

	// wifi, serve, cluster: the generator's calls in the traced replay.
	put("wifi.decode_us", "us", us(spDecode))
	var routed, opened float64
	for _, sp := range spans {
		switch sp.name {
		case spRoute:
			routed += float64(sp.seq)
		case spOpen:
			opened += float64(sp.seq)
		}
	}
	// The push call into the serving path: serve.Manager.Push, or on
	// fleet-churn the per-item share of Cluster.PushBatch (which
	// encodes, routes and pushes into the owning node's manager).
	put("serve.push_us_per_item", "us", ratio(float64(lt[spPush].total+lt[spRoute].total)/1e3, float64(lt[spPush].calls)+routed))
	put("serve.backlog_max_items", "items", float64(res.backlogMax))
	put("serve.gen_lateness_max_ms", "ms", float64(res.lateMaxNs)/1e6)
	put("serve.est_p99_ms", "ms", quantile(sc.latMs, 0.99))
	put("serve.est_samples", "count", float64(len(sc.latMs)))
	put("serve.shed_items", "items", float64(t.shed))
	put("lost_ratio", "ratio", ratio(float64(t.lost), float64(in.items)))

	// csi, core, dtw: the single-threaded reference replay.
	put("csi.sanitize_us", "us", us(spSanitize))
	put("core.track_us", "us", ratio(float64(lt[spPushCSI].self)/1e3, float64(lt[spPushCSI].calls)))
	put("core.imu_us", "us", us(spPushIMU))
	put("core.profile_build_ms", "ms", us(spProfiler)/1e3)
	put("core.open_us", "us", ratio(float64(lt[spOpen].self)/1e3, opened))
	put("core.matched_share", "ratio", ratio(float64(sc.matched), float64(sc.all)))
	put("core.held_share", "ratio", ratio(float64(sc.held), float64(sc.matched)))
	put("dtw.match_us", "us", us(spMatch))
	put("dtw.matches", "count", float64(lt[spMatch].calls))
	refItems := wt[spPushCSI].calls + wt[spPushIMU].calls + wt[spPushCamera].calls
	service := float64(wt[spSanitize].total+wt[spPushCSI].total+wt[spPushIMU].total+wt[spPushCamera].total) +
		us(spDecode)*1e3*float64(refItems)
	put("dtw.match_share", "ratio", ratio(float64(wt[spMatch].total), service))

	// serve residual: each traced estimate's latency minus its
	// triggering frame's service times, i.e. queueing, dispatch and
	// wake-up.
	put("serve.residual_ms_p50", "ms", residualP50(in, spans, sk2))

	// journal
	var jst struct{ records, batches, bytes, enq, dropped float64 }
	if s2.jw != nil {
		st := s2.jw.Stats()
		jst.records, jst.batches, jst.bytes = float64(st.Records), float64(st.Batches), float64(st.Bytes)
		jst.enq, jst.dropped = float64(st.Enqueued), float64(st.DroppedFull+st.DroppedClosed)
	}
	put("journal.records_per_commit", "count", ratio(jst.records, jst.batches))
	put("journal.bytes_per_record", "B", ratio(jst.bytes, jst.records))
	// Journal, cluster and obs work runs only on fleet-churn; their
	// costs are shares of the traced replay's CPU (or, for fsync, which
	// waits on the disk, of its wall time), so workloads without them
	// read 0 as a share rather than as a time.
	cpu2 := float64(res2.cpuNs)
	put("journal.write_share", "ratio", ratio(float64(lt[spJWrite].total), cpu2))
	put("journal.sync_share", "ratio", ratio(float64(lt[spJSync].total), float64(res2.wallNs)))
	put("journal.dropped_ratio", "ratio", ratio(jst.dropped, jst.enq+jst.dropped))

	// cluster
	var delivered, clRouted float64
	if s2.cl != nil {
		st := s2.cl.Stats()
		delivered, clRouted = float64(st.Delivered), float64(st.Routed)
	}
	put("cluster.messages_per_item", "count", ratio(float64(s2.messages.Load()), clRouted))
	put("cluster.delivered_ratio", "ratio", ratio(delivered, clRouted))

	// profilestore: traffic during the untraced replay; load latency
	// on the miss path from every traced load.
	d := res.store1
	d.Hits -= res.store0.Hits
	d.Misses -= res.store0.Misses
	d.Loads -= res.store0.Loads
	d.Evictions -= res.store0.Evictions
	put("profilestore.hit_rate", "ratio", d.HitRate())
	put("profilestore.loads", "count", float64(d.Loads))
	put("profilestore.evictions", "count", float64(d.Evictions))
	put("profilestore.get_ms_p50", "ms", median(lt[spLoad].durs)/1e6)

	// obs
	var spansRecorded float64
	if s2.tracer != nil {
		spansRecorded = float64(s2.tracer.Dump().Recorded)
	}
	put("obs.scrape_share", "ratio", ratio(float64(lt[spScrape].total), cpu2))
	put("obs.spans_per_frame", "count", ratio(spansRecorded, float64(in.frames)))

	// Go runtime, over the untraced replay.
	put("runtime.alloc_bytes_per_frame", "B", ratio(float64(res.allocBytes), frames))
	put("runtime.gc_per_s", "1/s", ratio(float64(res.gcs), float64(res.wallNs)/1e9))
	put("trace_overhead_pct", "%", 100*ratio(cpu2-float64(res.cpuNs), float64(res.cpuNs)))
	return m
}

// residualP50 is the median, over traced estimates, of latency minus
// the triggering request's own service: its decode and push (or the
// per-item share of its batch's route) in the concurrent replay, and
// its sanitize and PushCSI in the reference replay.
func residualP50(in *inputs, spans []span, sk2 *sink) float64 {
	firstSess := make([]int32, len(in.streams))
	for i := len(in.sessions) - 1; i >= 0; i-- {
		firstSess[in.sessions[i].stream] = int32(i)
	}
	// The triggering frame of an estimate is its stream's CSI item at
	// the estimate's timestamp.
	type req struct{ sess, seq int32 }
	trigger := func(r estRec) int32 {
		st := &in.streams[in.sessions[r.sess].stream]
		e := sort.Search(len(st.events), func(i int) bool { return st.events[i].t >= r.t })
		for e < len(st.events) && st.events[e].kind != evFrame {
			e++
		}
		return int32(e)
	}
	ingest := map[req]int64{}   // concurrent replay, per session
	pipeline := map[req]int64{} // reference replay, per stream's first session
	for _, r := range sk2.records() {
		e := trigger(r)
		ingest[req{r.sess, e}] = 0
		pipeline[req{firstSess[in.sessions[r.sess].stream], e}] = 0
	}
	var routeItems, routeNs int64
	for _, sp := range spans {
		k := req{sp.sess, sp.seq}
		switch sp.name {
		case spDecode, spPush:
			if v, ok := ingest[k]; ok {
				ingest[k] = v + sp.end - sp.start
			}
		case spSanitize, spPushCSI:
			if v, ok := pipeline[k]; ok {
				pipeline[k] = v + sp.end - sp.start
			}
		case spRoute:
			routeItems += int64(sp.seq)
			routeNs += sp.end - sp.start
		}
	}
	var perItemRoute int64
	if routeItems > 0 {
		perItemRoute = routeNs / routeItems
	}
	var res []float64
	for _, r := range sk2.records() {
		fs := &in.sessions[r.sess]
		due := fs.startNs + int64(r.t*1e9)
		if due < warmupNs {
			continue
		}
		e := trigger(r)
		own := ingest[req{r.sess, e}] + pipeline[req{firstSess[fs.stream], e}] + perItemRoute
		res = append(res, float64(r.wall-due-own)/1e6)
	}
	sort.Float64s(res)
	return quantile(res, 0.5)
}
