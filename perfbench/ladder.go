package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime/metrics"
	"strconv"
	"time"

	"crowdtopk/internal/par"
	"crowdtopk/internal/persist"
	"crowdtopk/internal/service"
	"crowdtopk/internal/session"
	"crowdtopk/internal/tpo"
)

// The traced run replays the workload's first sessions one at a time down
// four rungs, each calling one layer's public functions:
//
//	1  HTTP against the serve binary
//	2  the service core (service.New and its operations)
//	3  the session package, plus persist.File on the durable workloads
//	4  the primitives the session calls (dataset, pcache, tpo, selection,
//	   uncertainty) and session.Restore
//
// The benchmark records its own spans around those calls; the program is
// not traced. A layer's self time on a route is its rung's mean minus the
// mean of the rung below.
const (
	ladderPasses = 4
	rungs        = 4
	// ladderSumBound is how far the layer self times plus the rung-4
	// primitives may miss the HTTP rung's mean, as a share of it: the
	// remainder is the benchmark's own glue at rung 4.
	ladderSumBound = 0.10
	// ladderSlackUS absorbs clock resolution in both ladder checks.
	ladderSlackUS = 5
	// ladderNoiseShare widens the negative-self-time check by this share of
	// the HTTP rung's mean: on a route of tens of milliseconds, a 1% swing
	// between rungs is machine noise, not different work.
	ladderNoiseShare = 0.01
)

var rungNames = [rungs + 1]string{"", "http", "service", "session", "primitives"}

// span is one timed call. Route spans (Parent −1, Route true) enclose the
// calls made to serve that route; a call with Parent −1 ran between routes.
type span struct {
	Name    string `json:"name"`
	Route   bool   `json:"route,omitempty"`
	OK      bool   `json:"ok"`
	Rung    int    `json:"rung"`
	Pass    int    `json:"pass"`
	Session int    `json:"session"`
	Parent  int    `json:"parent"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
}

func (s span) us() float64 { return float64(s.End-s.Start) / 1e3 }

// tracer keeps the spans of the traced run in memory. The ladder is
// sequential, so it needs no lock.
type tracer struct {
	t0                  time.Time
	spans               []span
	rung, pass, session int
	cur                 int // open route span, −1 between routes
	off                 bool
}

func newTracer() *tracer { return &tracer{t0: time.Now(), cur: -1} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// route opens a route span and returns the function that closes it.
func (t *tracer) route(name string) func(ok bool) {
	if t.off {
		return func(bool) {}
	}
	i := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Route: true, Rung: t.rung, Pass: t.pass, Session: t.session, Parent: -1, Start: t.now()})
	t.cur = i
	return func(ok bool) {
		t.spans[i].End, t.spans[i].OK = t.now(), ok
		t.cur = -1
	}
}

// call opens a span for one call into a layer, inside the open route if
// there is one.
func (t *tracer) call(name string) func() {
	if t.off {
		return func() {}
	}
	i := len(t.spans)
	t.spans = append(t.spans, span{Name: name, OK: true, Rung: t.rung, Pass: t.pass, Session: t.session, Parent: t.cur, Start: t.now()})
	return func() { t.spans[i].End = t.now() }
}

// rename renames the last span (a call classified once it has returned).
func (t *tracer) rename(name string) {
	if !t.off && len(t.spans) > 0 {
		t.spans[len(t.spans)-1].Name = name
	}
}

// afterRouter is a rung that does work after a route has replied, as the
// service's background persister does after an ack.
type afterRouter interface{ afterRoute() }

// rungRuntime accumulates the Go runtime's allocation and GC pause totals
// over the service rung's sessions.
type rungRuntime struct {
	allocBytes, pauseSec, wallSec float64
	requests                      int
}

var runtimeSamples = []string{"/gc/heap/allocs:bytes", "/sched/pauses/total/gc:seconds"}

func readRuntime() (allocBytes, pauseSec float64) {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, n := range runtimeSamples {
		s[i].Name = n
	}
	metrics.Read(s)
	allocBytes = float64(s[0].Value.Uint64())
	h := s[1].Value.Float64Histogram()
	for i, c := range h.Counts {
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		switch {
		case math.IsInf(lo, 0):
			pauseSec += float64(c) * hi
		case math.IsInf(hi, 0):
			pauseSec += float64(c) * lo
		default:
			pauseSec += float64(c) * (lo + hi) / 2
		}
	}
	return allocBytes, pauseSec
}

// ladderResult is the traced run's outcome.
type ladderResult struct {
	ops, failed int
	notes       []string
	spans       []span
	rt          rungRuntime
	leaves      []float64
}

// runLadder replays sessions 0..w.ladder-1 (the first fill entries on
// restart) ladderPasses times at every rung, rotating the rung order per
// session so no rung always runs first.
func runLadder(w workload, in *inputs, bin, runDir, fillDir string, seed int64, work string) (*ladderResult, error) {
	tr := newTracer()
	res := &ladderResult{}
	type key struct{ pass, idx, rung int }
	got := map[key]outcome{}
	for pass := 0; pass < ladderPasses; pass++ {
		tr.pass = pass
		bs, closeAll, err := openRungs(w, in, bin, filepath.Join(runDir, "ladder-"+strconv.Itoa(pass)), fillDir, tr, res)
		if err != nil {
			return nil, err
		}
		for idx := 0; idx < w.ladder; idx++ {
			for j := 0; j < rungs; j++ {
				r := 1 + (j+pass+idx)%rungs
				tr.rung, tr.session = r, idx
				sin, err := in.session(idx)
				if err != nil {
					return nil, errors.Join(err, closeAll())
				}
				if p, ok := bs[r].(*primitiveBackend); ok && sin.fillID != "" {
					if err := p.prepare(sin, in.fill.Sessions[idx]); err != nil {
						return nil, errors.Join(err, closeAll())
					}
				}
				rec := func(route string) func(bool) {
					end := tr.route(route)
					return func(ok bool) {
						end(ok)
						if a, ok := bs[r].(afterRouter); ok {
							a.afterRoute()
						}
					}
				}
				var a0, p0 float64
				start := time.Now()
				if r == 2 {
					a0, p0 = readRuntime()
				}
				out, err := play(bs[r], sin, rec)
				if r == 2 {
					a1, p1 := readRuntime()
					res.rt.allocBytes += a1 - a0
					res.rt.pauseSec += p1 - p0
					res.rt.wallSec += time.Since(start).Seconds()
					res.rt.requests += out.ops
				}
				res.ops += out.ops
				res.failed += out.failed
				if sb, ok := bs[r].(*sessionBackend); ok && sb.putErr != nil {
					err = errors.Join(err, sb.putErr)
					sb.putErr = nil
					res.failed++
				}
				if err != nil {
					res.notes = append(res.notes, fmt.Sprintf("ladder pass %d rung %s: %v", pass, rungNames[r], err))
					continue
				}
				got[key{pass, idx, r}] = out
			}
			// Every rung must have asked the same questions and reached the
			// same ranking as the HTTP rung.
			ref, ok := got[key{pass, idx, 1}]
			for r := 2; ok && r <= rungs; r++ {
				o, ok2 := got[key{pass, idx, r}]
				if !ok2 {
					continue
				}
				res.ops++
				if !reflect.DeepEqual(o.questions, ref.questions) || !reflect.DeepEqual(o.ranking, ref.ranking) {
					res.failed++
					res.notes = append(res.notes, fmt.Sprintf("ladder pass %d session %d: rung %s asked %v ranked %v, http asked %v ranked %v",
						pass, idx, rungNames[r], o.questions, o.ranking, ref.questions, ref.ranking))
				}
			}
		}
		if err := closeAll(); err != nil {
			return nil, err
		}
	}
	res.spans = tr.spans
	dir := filepath.Join(work, "traces")
	data, err := json.Marshal(tr.spans)
	if err == nil {
		err = os.MkdirAll(dir, 0o755)
	}
	if err == nil {
		err = os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-%d.json", w.name, seed)), data, 0o644)
	}
	if err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	return res, nil
}

// openRungs sets up one pass's backends, each with fresh stores: on restart
// every durable rung gets its own copy of the ladder sessions.
func openRungs(w workload, in *inputs, bin, dir, fillDir string, tr *tracer, res *ladderResult) (map[int]backend, func() error, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	var closers []func() error
	closeAll := func() error {
		var err error
		for i := len(closers) - 1; i >= 0; i-- {
			err = errors.Join(err, closers[i]())
		}
		closers = nil
		return err
	}
	fail := func(err error) (map[int]backend, func() error, error) {
		_ = closeAll()
		return nil, nil, err
	}
	// dataDir returns rung r's data dir: empty on catalog, fresh on durable,
	// a copy of the ladder sessions on restart.
	dataDir := func(r int) (string, error) {
		if !w.durable {
			return "", nil
		}
		d := filepath.Join(dir, "data-"+strconv.Itoa(r))
		if !w.restart {
			return d, nil
		}
		for idx := 0; idx < w.ladder; idx++ {
			id := in.fill.Sessions[idx].ID
			if err := copyTree(filepath.Join(fillDataDir(fillDir), "sessions", id), filepath.Join(d, "sessions", id)); err != nil {
				return "", err
			}
		}
		return d, nil
	}
	bs := map[int]backend{}
	// A fresh server per pass, so that its caches hold no more than the
	// in-process rungs' do.
	d1, err := dataDir(1)
	if err != nil {
		return fail(err)
	}
	srv, err := startServer(bin, filepath.Join(dir, "server.log"), d1)
	if err != nil {
		return fail(err)
	}
	closers = append(closers, srv.stop)
	cl := newHTTPClient(srv.base)
	closers = append(closers, func() error { cl.close(); return nil })
	bs[1] = httpBackend{cl}

	cfg := service.Config{}
	d2, err := dataDir(2)
	if err != nil {
		return fail(err)
	}
	if d2 != "" {
		if cfg.Persist, err = persist.NewFile(persist.FileOptions{Dir: d2, Sync: persist.SyncAlways}); err != nil {
			return fail(err)
		}
	}
	svc, err := service.New(cfg)
	if err != nil {
		return fail(err)
	}
	closers = append(closers, func() error { svc.Close(); return nil })
	bs[2] = serviceBackend{svc: svc, ctx: context.Background(), durable: w.durable}

	sb := &sessionBackend{tr: tr, pool: par.NewBudget(0), sess: map[string]*session.Session{}}
	d3, err := dataDir(3)
	if err != nil {
		return fail(err)
	}
	if d3 != "" {
		if sb.file, err = persist.NewFile(persist.FileOptions{Dir: d3, Sync: persist.SyncAlways}); err != nil {
			return fail(err)
		}
		closers = append(closers, sb.file.Close)
	}
	if w.restart {
		// The boot scan is timed on the whole fill, read-only, as the
		// server's boot on restart sees it.
		tr.rung, tr.session = 3, -1
		f, err := persist.NewFile(persist.FileOptions{Dir: fillDataDir(fillDir), Sync: persist.SyncAlways})
		if err != nil {
			return fail(err)
		}
		done := tr.call("persist.Scan")
		sc, err := f.Scan()
		done()
		_ = f.Close()
		if err != nil {
			return fail(err)
		}
		if len(sc.IDs) != len(in.fill.Sessions) {
			return fail(fmt.Errorf("boot scan found %d of %d filled sessions", len(sc.IDs), len(in.fill.Sessions)))
		}
	}
	bs[3] = sb
	bs[4] = &primitiveBackend{tr: tr, pool: par.NewBudget(0), st: map[string]*primState{}, fillData: fillDataDir(fillDir), leaves: &res.leaves}
	return bs, closeAll, nil
}

// serviceBackend is rung 2: the service core in-process. On the durable
// workloads it flushes the background persister after each route, outside
// the route's span, so durable writes overlap no route here, as at rung 3.
// At the HTTP rung they may: waits on them count as server self time.
type serviceBackend struct {
	svc     *service.Service
	ctx     context.Context
	durable bool
}

func (b serviceBackend) afterRoute() {
	if b.durable {
		b.svc.Flush()
	}
}

func (b serviceBackend) create(in *sessionInput) (string, error) {
	info, err := b.svc.CreateOrRestore(b.ctx, service.CreateRequest{Tuples: in.specs, K: in.k, Budget: budget,
		Algorithm: algorithm, Measure: measure})
	if err != nil {
		return "", err
	}
	if info.Tuples != in.n {
		return "", checkf("service create reports %d tuples, want %d", info.Tuples, in.n)
	}
	return info.ID, nil
}

func (b serviceBackend) questions(id string) ([]tpo.Question, string, int, error) {
	v, err := b.svc.Questions(b.ctx, id, 0)
	if err != nil {
		return nil, "", 0, err
	}
	qs := make([]tpo.Question, len(v.Questions))
	for i, q := range v.Questions {
		qs[i] = tpo.Question{I: q.I, J: q.J}
	}
	return qs, string(v.State), v.Asked, nil
}

func (b serviceBackend) answers(id string, as []tpo.Answer) (int, error) {
	sa := make([]service.Answer, len(as))
	for i, a := range as {
		sa[i] = service.Answer{I: a.Q.I, J: a.Q.J, Yes: a.Yes}
	}
	v, err := b.svc.Answers(b.ctx, id, sa)
	return v.Asked, err
}

func (b serviceBackend) result(id string) ([]int, string, int, error) {
	v, err := b.svc.Result(b.ctx, id)
	return v.Ranking, string(v.State), v.Asked, err
}

func (b serviceBackend) remove(id string) error { return b.svc.Delete(b.ctx, id) }

// ladderRoutes are the routes a session lifecycle makes, in order.
var ladderRoutes = []string{"create", "hydrate", "questions", "answers", "result", "delete"}

// passSession names one session's replay in one pass.
type passSession struct{ pass, session int }

// ladderStats folds the spans into per-pass route means by rung, per-session
// route means by rung, per-pass means of the rung-4 calls made inside each
// route, the glue of every rung-4 route call (its time outside those calls),
// and call durations by rung.
type ladderStats struct {
	route map[int]map[string][]float64               // rung → route → per-pass mean µs
	sess  map[int]map[string]map[passSession]float64 // rung → route → replay → mean µs
	prims map[string][]float64                       // route → per-pass mean µs of rung-4 calls per route call
	glue  map[string][]float64                       // route → µs of every rung-4 route call outside its calls
	n     map[int]map[string]int                     // rung → route → successful calls
	calls map[int]map[string][]float64               // rung → call name → µs of every call
}

func newLadderStats(spans []span) *ladderStats {
	type rk struct {
		rung  int
		route string
		pass  int
	}
	type sk struct {
		rung  int
		route string
		ps    passSession
	}
	durs, child := map[rk][]float64{}, map[rk]float64{}
	sessDurs := map[sk][]float64{}
	inner := map[int]float64{} // rung-4 route span index → µs of its calls
	st := &ladderStats{route: map[int]map[string][]float64{}, sess: map[int]map[string]map[passSession]float64{},
		prims: map[string][]float64{}, glue: map[string][]float64{},
		n: map[int]map[string]int{}, calls: map[int]map[string][]float64{}}
	for r := 1; r <= rungs; r++ {
		st.route[r], st.sess[r] = map[string][]float64{}, map[string]map[passSession]float64{}
		st.n[r], st.calls[r] = map[string]int{}, map[string][]float64{}
	}
	for _, s := range spans {
		if !s.Route {
			st.calls[s.Rung][s.Name] = append(st.calls[s.Rung][s.Name], s.us())
			if s.Parent >= 0 && s.Rung == rungs && spans[s.Parent].OK {
				p := spans[s.Parent]
				child[rk{s.Rung, p.Name, p.Pass}] += s.us()
				inner[s.Parent] += s.us()
			}
		}
	}
	for i, s := range spans {
		if s.Route && s.OK {
			k := rk{s.Rung, s.Name, s.Pass}
			durs[k] = append(durs[k], s.us())
			sk := sk{s.Rung, s.Name, passSession{s.Pass, s.Session}}
			sessDurs[sk] = append(sessDurs[sk], s.us())
			st.n[s.Rung][s.Name]++
			if s.Rung == rungs {
				st.glue[s.Name] = append(st.glue[s.Name], s.us()-inner[i])
			}
		}
	}
	for k, d := range sessDurs {
		m := st.sess[k.rung][k.route]
		if m == nil {
			m = map[passSession]float64{}
			st.sess[k.rung][k.route] = m
		}
		m[k.ps] = mean(d)
	}
	for r := 1; r <= rungs; r++ {
		for _, route := range ladderRoutes {
			for pass := 0; pass < ladderPasses; pass++ {
				k := rk{r, route, pass}
				if len(durs[k]) == 0 {
					continue
				}
				st.route[r][route] = append(st.route[r][route], mean(durs[k]))
				if r == rungs {
					st.prims[route] = append(st.prims[route], child[k]/float64(len(durs[k])))
				}
			}
		}
	}
	return st
}

// self returns the per-pass self times of rung r's layer on route: rung r's
// mean minus rung r+1's. Nil when a rung did not serve the route in every
// pass.
func (st *ladderStats) self(r int, route string) []float64 {
	a, b := st.route[r][route], st.route[r+1][route]
	if len(a) != ladderPasses || len(b) != ladderPasses {
		return nil
	}
	out := make([]float64, ladderPasses)
	for i := range out {
		out[i] = a[i] - b[i]
	}
	return out
}

// selfPairs returns rung r's layer's self time on route for every session
// replay both rungs served: the session's mean µs per call at rung r minus
// the same session's at rung r+1, in the same pass.
func (st *ladderStats) selfPairs(r int, route string) []float64 {
	var out []float64
	for ps, a := range st.sess[r][route] {
		if b, ok := st.sess[r+1][route][ps]; ok {
			out = append(out, a-b)
		}
	}
	return out
}

// callMean is the mean µs of rung r's calls named name (0 when none).
func (st *ladderStats) callMean(r int, name string) (float64, int) {
	return mean(st.calls[r][name]), len(st.calls[r][name])
}

// callTotal is the total µs of rung r's calls named names.
func (st *ladderStats) callTotal(r int, names ...string) float64 {
	total := 0.0
	for _, n := range names {
		for _, v := range st.calls[r][n] {
			total += v
		}
	}
	return total
}

// check runs the ladder consistency check on every route the HTTP rung
// served. The self times telescope, so with the rung-4 calls they add up to
// the HTTP rung's mean exactly but for rung 4's glue, its time outside the
// calls: the median glue per call must stay within ladderSumBound of the
// HTTP rung. And no layer's self time may be negative beyond its spread:
// each session replay runs at every rung back to back, so a layer's self
// time is measured once per replay, and the median of those may not fall
// below minus their interquartile range, widened by ladderNoiseShare of the
// HTTP rung. Medians over replays keep a lone pause of either process, or a
// few noisy replays, from reading as a rung doing different work.
func (st *ladderStats) check() (notes []string, failed int) {
	for _, route := range ladderRoutes {
		if len(st.route[1][route]) == 0 {
			continue
		}
		var http []float64
		for _, v := range st.sess[1][route] {
			http = append(http, v)
		}
		r1 := percentile(http, 50)
		for r := 1; r < rungs; r++ {
			d := st.selfPairs(r, route)
			if len(d) == 0 {
				notes = append(notes, fmt.Sprintf("ladder check: route %s missing at rung %s or %s", route, rungNames[r], rungNames[r+1]))
				failed++
				continue
			}
			med, iqr := percentile(d, 50), percentile(d, 75)-percentile(d, 25)
			if med < -(iqr + ladderNoiseShare*r1 + ladderSlackUS) {
				notes = append(notes, fmt.Sprintf("ladder check: %s self time on %s is %.1fus over %d replays, below its interquartile range %.1fus",
					rungNames[r], route, med, len(d), iqr))
				failed++
			}
		}
		glue := percentile(st.glue[route], 50)
		if math.Abs(glue) > ladderSumBound*r1+ladderSlackUS {
			notes = append(notes, fmt.Sprintf("ladder check: %.1fus of rung 4's %s is outside the primitives, http rung %.1fus", glue, route, r1))
			failed++
		}
		notes = append(notes, fmt.Sprintf("ladder %-9s http %9.1fus = server %8.1f + service %8.1f + session %8.1f + primitives %9.1f + glue %6.1f (median %.1f)",
			route, mean(st.route[1][route]), mean(st.self(1, route)), mean(st.self(2, route)), mean(st.self(3, route)),
			mean(st.prims[route]), mean(st.route[rungs][route])-mean(st.prims[route]), glue))
	}
	return notes, failed
}

// layerMetrics fills the JSON metrics of a traced run: self times and call
// means from the ladder, counts from the HTTP window's counter deltas. Every
// JSON metric is measured on every workload; the calls only some workloads
// make are printed beside them.
func layerMetrics(rep *report, w workload, win *windowResult, lad *ladderResult) {
	st := newLadderStats(lad.spans)
	notes, failed := st.check()
	rep.notes = append(rep.notes, notes...)
	rep.Attempted++
	rep.Failed += failed
	// start is the route that brings a session into memory, as in the
	// end-to-end metrics; startCall is the rung-3 call that serves it and
	// startPrims the rung-4 calls that call makes.
	start, startCall := "create", "session.NewCtx"
	startPrims := []string{"dataset.Digest", "pcache.Prewarm", "tpo.Build", "selection.first_plan"}
	if w.restart {
		start, startCall = "hydrate", "persist.Get"
		startPrims = []string{"os.ReadFile", "session.Restore", "session.replay"}
	}
	for _, layer := range []struct {
		name string
		rung int
	}{{"server", 1}, {"service", 2}} {
		rep.set(layer.name+".start_self_us", mean(st.self(layer.rung, start)), "us", st.n[layer.rung][start])
		for _, route := range []string{"questions", "answers", "result", "delete"} {
			rep.set(layer.name+"."+route+"_self_us", mean(st.self(layer.rung, route)), "us", st.n[layer.rung][route])
		}
	}
	call := func(name string, scale float64, unit string, r int, span string) {
		m, n := st.callMean(r, span)
		rep.set(name, m/scale, unit, n)
	}
	startR3, n := st.callMean(3, startCall)
	startR4 := 0.0
	for _, c := range startPrims {
		m, _ := st.callMean(4, c)
		startR4 += m
	}
	rep.set("session.start_self_us", startR3-startR4, "us", n)
	subR3, n := st.callMean(3, "session.SubmitAnswerCtx")
	perAnswer := ratio(st.callTotal(4, "tpo.Prune", "selection.LiveEngine.Sync", "selection.replan"), float64(len(st.calls[4]["tpo.Prune"])))
	rep.set("session.submit_self_us", subR3-perAnswer, "us", n)
	call("session.result_us", 1, "us", 3, "session.Result")
	call("dataset.from_specs_us", 1, "us", 4, "dataset.FromSpecs")
	call("dataset.digest_us", 1, "us", 4, "dataset.Digest")
	call("pcache.prewarm_us", 1, "us", 4, "pcache.Prewarm")
	call("tpo.build_ms", 1e3, "ms", 4, "tpo.Build")
	rep.set("tpo.leaves", mean(lad.leaves), "count", len(lad.leaves))
	call("tpo.prune_us", 1, "us", 4, "tpo.Prune")
	call("selection.first_plan_ms", 1e3, "ms", 4, "selection.first_plan")
	call("selection.sync_us", 1, "us", 4, "selection.LiveEngine.Sync")
	call("selection.replan_us", 1, "us", 4, "selection.replan")
	// Both uncertainty calls a result makes, per result.
	results := st.n[rungs]["result"]
	rep.set("uncertainty.result_us", ratio(st.callTotal(4, "uncertainty.Representative", "uncertainty.Measure.Value"), float64(results)), "us", results)
	// The durable tier's calls, which catalog never makes and only restart
	// makes on the read side: printed where they were made.
	for _, c := range []struct {
		name  string
		scale float64
		unit  string
		rung  int
		span  string
	}{
		{"persist.put_us", 1, "us", 3, "persist.Put.append"},
		{"persist.snapshot_ms", 1e3, "ms", 3, "persist.Put.snapshot"},
		{"persist.get_ms", 1e3, "ms", 3, "persist.Get"},
		{"persist.scan_ms", 1e3, "ms", 3, "persist.Scan"},
		{"session.restore_ms", 1e3, "ms", 4, "session.Restore"},
		{"session.replay_ms", 1e3, "ms", 4, "session.replay"},
	} {
		if m, n := st.callMean(c.rung, c.span); n > 0 {
			rep.extra[c.name] = metric{Value: m / c.scale, Unit: c.unit, samples: n}
		}
	}

	d := win.counters.delta()
	answers := len(win.lat["answers"])
	reqs := win.requests()
	rep.set("obs.log_bytes_per_request", ratio(float64(d.logBytes), float64(reqs)), "B", reqs)
	rep.set("service.dirty_sessions_max", float64(d.dirtyMax), "count", win.counters.n)
	rep.set("service.persist_retries", float64(d.persistRetries), "count", win.counters.n)
	rep.set("session.answers_per_session", ratio(float64(answers), float64(win.sessions)), "count", win.sessions)
	rep.set("pcache.hit_ratio", ratio(float64(d.pcHits), float64(d.pcHits+d.pcMisses)), "1", int(d.pcHits+d.pcMisses))
	rep.set("pcache.entries_max", float64(d.entriesMax), "count", win.counters.n)
	rep.set("pcache.resets", float64(d.resets), "count", win.counters.n)
	rep.set("selection.reuse_ratio", ratio(float64(d.reuses), float64(d.reuses+d.rebuilds)), "1", int(d.reuses+d.rebuilds))
	rep.set("selection.compactions_per_answer", ratio(float64(d.compactions), float64(answers)), "count", answers)
	rep.set("persist.fsyncs_per_answer", ratio(float64(d.fsyncs), float64(answers)), "count", answers)
	persistBytes := float64(d.wchar) - float64(d.logBytes) - float64(d.sockBytes)
	rep.set("persist.write_bytes_per_answer", ratio(max(persistBytes, 0), float64(answers)), "B", answers)
	rep.set("persist.replays_per_hydrate", ratio(float64(d.replays), float64(d.recovered)), "count", int(d.recovered))
	rep.set("runtime.alloc_kb_per_request", ratio(lad.rt.allocBytes/1024, float64(lad.rt.requests)), "kB", lad.rt.requests)
	// Printed only: the benchmark's own heap, which on restart holds the
	// fill's manifest, sets when the collector runs, and the service rung's
	// replays there can end before any cycle does.
	rep.extra["runtime.gc_pause_ms_per_s"] = metric{Value: ratio(lad.rt.pauseSec*1e3, lad.rt.wallSec), Unit: "ms/s", samples: lad.rt.requests}
}
