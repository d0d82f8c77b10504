package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"lightor/internal/chat"
	"lightor/internal/core"
	"lightor/internal/play"
)

// interval is a span's extent in Unix nanoseconds.
type ival struct{ s, e int64 }

// selfTime is a span's duration minus the part of it its children
// cover; overlapping children are counted once and the parts of children
// outside the parent not at all.
func selfTime(parent ival, children []ival) int64 {
	var in []ival
	for _, c := range children {
		c.s, c.e = max(c.s, parent.s), min(c.e, parent.e)
		if c.e > c.s {
			in = append(in, c)
		}
	}
	sort.Slice(in, func(i, j int) bool { return in[i].s < in[j].s })
	covered, reach := int64(0), parent.s
	for _, c := range in {
		if c.e <= reach {
			continue
		}
		covered += c.e - max(c.s, reach)
		reach = c.e
	}
	return parent.e - parent.s - covered
}

// stage is one row of a "where the time goes" table: per-sample
// durations in microseconds along one blocking path.
type stage struct {
	name string
	d    dist
}

// stageTable is a blocking path split into consecutive stages, and the
// end-to-end time of the same samples.
type stageTable struct {
	title  string
	stages []*stage
	e2e    dist
}

func newTable(title string, names ...string) *stageTable {
	t := &stageTable{title: title}
	for _, n := range names {
		t.stages = append(t.stages, &stage{name: n})
	}
	return t
}

// add records one sample: its stage durations (µs, in table order) and
// its end-to-end time.
func (t *stageTable) add(e2e float64, parts ...float64) {
	t.e2e.add(e2e)
	for i, p := range parts {
		t.stages[i].d.add(p)
	}
}

// coverage is the share of the mean end-to-end time the stages' means
// account for.
func (t *stageTable) coverage() float64 {
	sum := 0.0
	for _, s := range t.stages {
		sum += s.d.mean()
	}
	return 100 * sum / t.e2e.mean()
}

func (t *stageTable) print() {
	fmt.Printf("where the time goes: %s (n=%d; end to end mean %.1f us, %s)\n", t.title, t.e2e.n(), t.e2e.mean(), t.e2e.summary("us"))
	fmt.Printf("  %-36s %12s %12s %8s\n", "stage", "mean us", "p50 us", "share")
	for _, s := range t.stages {
		fmt.Printf("  %-36s %12.1f %12.1f %7.1f%%\n", s.name, s.d.mean(), s.d.q(0.5), 100*s.d.mean()/t.e2e.mean())
	}
	fmt.Printf("  stages cover %.1f%% of the end-to-end mean\n", t.coverage())
}

// spanIndex groups the traced server's spans for joining with the
// generator's records.
type spanIndex struct {
	byID   map[int64]span
	byName map[string][]span
	// per channel, in time order
	publish map[string][]span
	ckpt    map[string][]span
	pops    map[string][]span
}

func indexSpans(tf *traceFile) *spanIndex {
	ix := &spanIndex{byID: map[int64]span{}, byName: map[string][]span{},
		publish: map[string][]span{}, ckpt: map[string][]span{}, pops: map[string][]span{}}
	for _, s := range tf.Spans {
		ix.byName[s.Name] = append(ix.byName[s.Name], s)
		switch s.Name {
		case "engine.publish":
			ix.publish[s.Key] = append(ix.publish[s.Key], s)
		case "store.put_checkpoint":
			ix.ckpt[s.Key] = append(ix.ckpt[s.Key], s)
		case "push.pop":
			ix.pops[s.Key] = append(ix.pops[s.Key], s)
		default:
			if s.ID != 0 {
				ix.byID[s.ID] = s
			}
		}
	}
	for _, m := range []map[string][]span{ix.publish, ix.ckpt, ix.pops} {
		for _, ss := range m {
			sort.Slice(ss, func(i, j int) bool { return ss[i].Start < ss[j].Start })
		}
	}
	return ix
}

// firstAfter returns the first span starting at or after t for which ok
// holds.
func firstAfter(ss []span, t int64, ok func(span) bool) (span, bool) {
	for i := sort.Search(len(ss), func(i int) bool { return ss[i].Start >= t }); i < len(ss); i++ {
		if ok(ss[i]) {
			return ss[i], true
		}
	}
	return span{}, false
}

// lastEndingBy returns the last span that started at or after from and
// ended by t.
func lastEndingBy(ss []span, from, t int64) (span, bool) {
	for i := sort.Search(len(ss), func(i int) bool { return ss[i].Start > t }) - 1; i >= 0 && ss[i].Start >= from; i-- {
		if ss[i].End <= t {
			return ss[i], true
		}
	}
	return span{}, false
}

func us(ns int64) float64 { return float64(ns) / 1e3 }

func durDist(ss []span) *dist {
	var d dist
	for _, s := range ss {
		d.add(us(s.End - s.Start))
	}
	return &d
}

// primaryKind is the handler a workload's acknowledged operation reaches.
var primaryKind = map[string]string{
	"live_broadcast":      "live_chat",
	"viewer_interactions": "interactions",
	"dot_readers":         "reads",
}

// ackTable splits the primary operation's latency: generator lateness,
// the network and HTTP transport both ways, and the handler, with the
// handler's store spans split out of it.
func ackTable(workload string, out *outcome, ix *spanIndex) (*stageTable, *dist) {
	kind := primaryKind[workload]
	t := newTable("ack path, "+kind, "gen.late", "platform.net", "platform.handler."+kind+" (self)", "store.append_events")
	var net dist
	appends := map[string][]span{}
	for _, s := range ix.byName["store.append_events"] {
		appends[s.Key] = append(appends[s.Key], s)
	}
	for _, op := range out.ops {
		h, ok := ix.byID[op.id]
		if !op.t.ok || !ok || h.Name != "platform.handler."+kind {
			continue
		}
		client := op.t.done.Sub(op.t.sent).Nanoseconds()
		n := client - (h.End - h.Start)
		net.add(us(n))
		var kids []ival
		for _, a := range appends[h.Key] {
			if a.Start >= h.Start && a.End <= h.End {
				kids = append(kids, ival{a.Start, a.End})
			}
		}
		self := selfTime(ival{h.Start, h.End}, kids)
		t.add(us(op.t.latency().Nanoseconds()), us(op.t.late().Nanoseconds()), us(n), us(self), us(h.End-h.Start-self))
	}
	return t, &net
}

// redDotTable splits time to red dot along the blocking path from the
// emitting request's due time to the SSE frame the client read.
func redDotTable(out *outcome, ix *spanIndex, workerLag, pubToPop *dist) *stageTable {
	t := newTable("red dot (emitting batch due -> SSE frame read)",
		"gen.late", "platform.net (request)", "platform.handler.live_chat", "engine.mailbox+feed",
		"store.put_checkpoint", "engine.publish", "platform.push.publish_to_pop", "platform.push.write+net")
	ops := map[int64]opRec{}
	for _, op := range out.ops {
		ops[op.id] = op
	}
	for _, d := range out.dots {
		op, ok1 := ops[d.emitter]
		h, ok2 := ix.byID[d.emitter]
		if !d.ok || !ok1 || !ok2 {
			continue
		}
		pub, ok := firstAfter(ix.publish[d.key], h.Start, func(s span) bool { return s.Count > d.idx })
		if !ok {
			continue
		}
		ck, ok := lastEndingBy(ix.ckpt[d.key], h.Start, pub.Start)
		if !ok {
			continue
		}
		pop, ok := firstAfter(ix.pops[d.key], pub.Start, func(s span) bool { return s.Count > d.idx })
		if !ok {
			continue
		}
		workerLag.add(us(pub.Start - h.End))
		sent := op.t.sent.UnixNano()
		t.add(us(d.read.Sub(d.due).Nanoseconds()),
			us(op.t.late().Nanoseconds()),
			us(h.Start-sent),
			us(h.End-h.Start),
			us(ck.Start-h.End),
			us(ck.End-ck.Start),
			us(pub.Start-ck.End),
			us(pop.Start-pub.Start),
			us(d.read.UnixNano()-pop.Start))
	}
	// Publish to pop over every frame, not only the probe's sampled dots.
	pubAt := map[string]int64{}
	for ch, ps := range ix.publish {
		for _, p := range ps {
			pubAt[ch+"\x00"+strconv.FormatUint(p.Version, 10)] = p.Start
		}
	}
	for ch, ps := range ix.pops {
		for _, p := range ps {
			if at, ok := pubAt[ch+"\x00"+strconv.FormatUint(p.Version, 10)]; ok {
				pubToPop.add(us(p.Start - at))
			}
		}
	}
	return t
}

// replay runs the workload's chat streams offline through the layers
// below the handler: the chat decoder on the same bodies and the online
// detector on the same messages. It returns ns per message for each and
// the detector's window closes and emitted dots.
func replay(e *env, streams [][]chat.Message) (decodeNS, feedNS float64, closes, dots int, err error) {
	var bodies [][]byte
	msgs := 0
	for _, s := range streams {
		for lo := 0; lo < len(s); lo += batchSize {
			b, err := json.Marshal(s[lo:min(lo+batchSize, len(s))])
			if err != nil {
				return 0, 0, 0, 0, err
			}
			bodies = append(bodies, b)
		}
		msgs += len(s)
	}
	if msgs == 0 {
		return 0, 0, 0, 0, nil
	}
	var dec, feed []float64
	buf := make([]chat.Message, 0, batchSize)
	for rep := 0; rep < 3; rep++ {
		t0 := time.Now()
		for _, b := range bodies {
			if _, _, ok := chat.AppendMessagesJSON(buf[:0], b); !ok {
				return 0, 0, 0, 0, fmt.Errorf("replay: body does not decode")
			}
		}
		dec = append(dec, float64(time.Since(t0).Nanoseconds())/float64(msgs))

		size := e.m.init.Config().WindowSize
		closes, dots = 0, 0
		t0 = time.Now()
		for _, s := range streams {
			od, err := core.NewOnlineDetector(e.m.init, 0)
			if err != nil {
				return 0, 0, 0, 0, err
			}
			win := math.Inf(-1)
			for _, m := range s {
				if w := math.Floor(m.Time / size); w != win {
					if !math.IsInf(win, -1) {
						closes++
					}
					win = w
				}
				d, err := od.Feed(m)
				if err != nil {
					return 0, 0, 0, 0, err
				}
				dots += len(d)
			}
		}
		feed = append(feed, float64(time.Since(t0).Nanoseconds())/float64(msgs))
	}
	return median(dec), median(feed), closes, dots, nil
}

// refineReplay times the reference extractor on each refine round's
// snapshot, in milliseconds per job.
func refineReplay(e *env, rs []refineRun) float64 {
	if len(rs) == 0 {
		return 0
	}
	t0 := time.Now()
	for _, r := range rs {
		refineReference(e.m.ext, r.input, play.Sessionize(r.events[:r.lo]))
	}
	return float64(time.Since(t0).Nanoseconds()) / 1e6 / float64(len(rs))
}

// tracedPass runs the fixed-rate phase against the in-process stack,
// decorated when traced is set.
func tracedPass(cfg config, e *env, dir, name string, secs time.Duration, traced bool) (*outcome, phaseStats, *traceFile, error) {
	data := filepath.Join(dir, "data-"+name)
	traceOut := filepath.Join(dir, "trace-"+name+".json")
	args := []string{"-serve", data, "-seed", strconv.FormatInt(cfg.seed, 10)}
	if traced {
		args = append(args, "-trace-out", traceOut)
	}
	p, _, err := spawn(cfg.selfBin, args, filepath.Join(dir, "serve-"+name+".log"))
	if err != nil {
		return nil, phaseStats{}, nil, err
	}
	defer p.kill()
	out, st, err := drive(cfg, e, p, secs, 0)
	if err != nil {
		return nil, st, nil, err
	}
	if err := p.stop(); err != nil {
		return nil, st, nil, err
	}
	if !traced {
		return out, st, nil, nil
	}
	raw, err := os.ReadFile(traceOut)
	if err != nil {
		return nil, st, nil, fmt.Errorf("reading spans: %w", err)
	}
	var tf traceFile
	if err := json.Unmarshal(raw, &tf); err != nil {
		return nil, st, nil, fmt.Errorf("reading spans: %w", err)
	}
	return out, st, &tf, nil
}

// runTraced measures the per-layer metrics: an untraced and a traced pass
// of the fixed-rate phase, each for half of --seconds, over the same
// generated inputs; spans from the traced pass, overhead from the pair.
func runTraced(cfg config, e *env, dir string, fsyncUS float64) (*result, error) {
	half := time.Duration(cfg.seconds) * time.Second / 2
	plain, _, _, err := tracedPass(cfg, e, dir, "untraced", half, false)
	if err != nil {
		return nil, err
	}
	out, st, tf, err := tracedPass(cfg, e, dir, "traced", half, true)
	if err != nil {
		return nil, err
	}
	ix := indexSpans(tf)

	ack, net := ackTable(cfg.workload, out, ix)
	ack.print()
	var workerLag, pubToPop dist
	cover := ack.coverage()
	if cfg.workload == "live_broadcast" {
		rd := redDotTable(out, ix, &workerLag, &pubToPop)
		rd.print()
		cover = rd.coverage()
		ck := durDist(ix.byName["store.put_checkpoint"])
		fmt.Printf("store.put_checkpoint_us p50 %.1f us = %.1f%% of the traced red_dot p50 (%.1f us)\n",
			ck.q(0.5), 100*ck.q(0.5)/rd.e2e.q(0.5), rd.e2e.q(0.5))
	}

	decodeNS, feedNS, closes, emitted, err := replay(e, out.streams)
	if err != nil {
		return nil, err
	}
	var refineWait dist
	stored := sortedByStart(ix.byName["store.set_refined"])
	for _, h := range ix.byName["platform.handler.refine"] {
		if s, ok := firstAfter(stored, h.End, func(s span) bool { return s.Key == h.Key }); ok {
			refineWait.add(us(s.Start - h.End))
		}
	}
	var handlers, shed, reads, notMod int
	for _, s := range tf.Spans {
		if strings.HasPrefix(s.Name, "platform.handler.") {
			handlers++
			if s.Status == 429 || s.Status == 503 {
				shed++
			}
			if s.Name == "platform.handler.reads" {
				reads++
				if s.Status == 304 {
					notMod++
				}
			}
		}
	}
	var late, frameBytes dist
	for _, op := range out.ops {
		late.add(us(op.t.late().Nanoseconds()))
	}
	for _, p := range ix.byName["push.pop"] {
		frameBytes.add(float64(p.Bytes))
	}
	ckpts := ix.byName["store.put_checkpoint"]
	var ckptBytes dist
	for _, c := range ckpts {
		ckptBytes.add(float64(c.Bytes))
	}
	cpus := float64(runtime.NumCPU()) * st.wall.Seconds()
	overhead := zeroNaN(1000 * (out.ack.q(0.5) - plain.ack.q(0.5)))
	fmt.Printf("tracing overhead: ack p50 traced %.4f ms - untraced %.4f ms = %.1f us; visible p50 traced %.4f ms - untraced %.4f ms\n",
		out.ack.q(0.5), plain.ack.q(0.5), overhead, out.visible.q(0.5), plain.visible.q(0.5))

	m := map[string]metric{
		"chat.decode_ns_per_msg":           {decodeNS, "ns"},
		"platform.handler.live_chat_us":    {p50(durDist(ix.byName["platform.handler.live_chat"])), "us"},
		"platform.handler.interactions_us": {p50(durDist(ix.byName["platform.handler.interactions"])), "us"},
		"platform.handler.reads_us":        {p50(durDist(ix.byName["platform.handler.reads"])), "us"},
		"platform.net_us":                  {p50(net), "us"},
		"platform.shed_pct":                {pct(shed, handlers), "%"},
		"platform.not_modified_pct":        {pct(notMod, reads), "%"},
		"platform.push.publish_to_pop_us":  {p50(&pubToPop), "us"},
		"platform.push.frame_bytes":        {zeroNaN(frameBytes.mean()), "bytes"},
		"platform.push.drops":              {float64(tf.PushDrops), "count"},
		"store.put_checkpoint_us.p50":      {p50(durDist(ckpts)), "us"},
		"store.put_checkpoint_us.p99":      {pq(durDist(ckpts), 0.99), "us"},
		"store.checkpoints":                {float64(len(ckpts)), "count"},
		"store.checkpoint_bytes":           {zeroNaN(ckptBytes.mean()), "bytes"},
		"store.append_events_us.p50":       {p50(durDist(ix.byName["store.append_events"])), "us"},
		"store.append_events_us.p99":       {pq(durDist(ix.byName["store.append_events"]), 0.99), "us"},
		"store.set_refined_us":             {p50(durDist(ix.byName["store.set_refined"])), "us"},
		"engine.worker_lag_us":             {p50(&workerLag), "us"},
		"engine.backlog_max":               {float64(tf.BacklogMax), "count"},
		"engine.refine_wait_us":            {p50(&refineWait), "us"},
		"core.feed_ns_per_msg":             {feedNS, "ns"},
		"core.window_closes":               {float64(closes), "count"},
		"core.dots_emitted":                {float64(emitted), "count"},
		"core.refine_ms_per_job":           {refineReplay(e, out.refines), "ms"},
		"server.cpu_util":                  {100 * st.serverCPU.Seconds() / cpus, "%"},
		"gen.cpu_util":                     {100 * st.genCPU.Seconds() / cpus, "%"},
		"gen.late_p99_us":                  {pq(&late, 0.99), "us"},
		"env.fsync_p50_us":                 {fsyncUS, "us"},
		"trace.overhead_us":                {overhead, "us"},
		"trace.coverage_pct":               {zeroNaN(cover), "%"},
	}
	printPerLayer(m, map[string]*dist{
		"platform.handler.live_chat_us":    durDist(ix.byName["platform.handler.live_chat"]),
		"platform.handler.interactions_us": durDist(ix.byName["platform.handler.interactions"]),
		"platform.handler.reads_us":        durDist(ix.byName["platform.handler.reads"]),
		"platform.net_us":                  net,
		"platform.push.publish_to_pop_us":  &pubToPop,
		"store.put_checkpoint_us.p50":      durDist(ckpts),
		"store.append_events_us.p50":       durDist(ix.byName["store.append_events"]),
		"store.set_refined_us":             durDist(ix.byName["store.set_refined"]),
		"engine.worker_lag_us":             &workerLag,
		"engine.refine_wait_us":            &refineWait,
		"gen.late_p99_us":                  &late,
	})
	printErrors(e)
	return &result{Correct: !e.wrong(), Attempted: plain.attempted + out.attempted, Failed: plain.failed + out.failed, Metrics: m},
		checkNames(m, perLayerNames)
}

func printPerLayer(m map[string]metric, samples map[string]*dist) {
	for _, k := range sortedKeys(m) {
		line := fmt.Sprintf("%s %.4g %s", k, m[k].Value, m[k].Unit)
		if d, ok := samples[k]; ok {
			line += " (" + d.summary("us") + ")"
		}
		fmt.Println(line)
	}
}

func sortedByStart(ss []span) []span {
	out := append([]span(nil), ss...)
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// p50 and pq report 0 for a layer the workload does not exercise.
func p50(d *dist) float64           { return pq(d, 0.5) }
func pq(d *dist, p float64) float64 { return zeroNaN(d.q(p)) }
func pct(n, of int) float64         { return zeroNaN(100 * float64(n) / float64(of)) }
func zeroNaN(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return x
}
