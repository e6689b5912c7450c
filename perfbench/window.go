package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// statsReply is the part of GET /v1/stats the counter sampler reads.
type statsReply struct {
	Store struct {
		DirtySessions  int             `json:"dirty_sessions"`
		PersistRetries uint64          `json:"persist_retries"`
		Persist        *persistCounter `json:"persist"`
	} `json:"store"`
	PCache struct {
		Entries int64 `json:"entries"`
		Resets  int64 `json:"resets"`
	} `json:"pcache"`
	PCacheWindow struct {
		Hits   int64 `json:"hits"`
		Misses int64 `json:"misses"`
	} `json:"pcache_window"`
	Live struct {
		Reuses      int64 `json:"reuses"`
		Rebuilds    int64 `json:"rebuilds"`
		Compactions int64 `json:"compactions"`
	} `json:"selection_live"`
}

type persistCounter struct {
	Replays           uint64 `json:"replays"`
	RecoveredSessions uint64 `json:"recovered_sessions"`
	Fsyncs            uint64 `json:"fsyncs"`
}

var statsFields = []string{"store", "pcache", "pcache_window", "selection_live"}

// counterSample is one reading of the server's counters: its /v1/stats
// sections, its /proc files, its log size and the bytes it wrote to the
// benchmark's sockets.
type counterSample struct {
	proc      procSample
	logBytes  int64
	sockBytes int64
	stats     statsReply
}

func takeSample(srv *serverProc, c *httpClient, durable bool) (counterSample, error) {
	var s counterSample
	var raw json.RawMessage
	if err := c.call("GET", "/v1/stats", nil, http.StatusOK, &raw, statsFields); err != nil {
		return s, err
	}
	if err := json.Unmarshal(raw, &s.stats); err != nil {
		return s, err
	}
	if durable && s.stats.Store.Persist == nil {
		return s, checkf("durable /v1/stats has no store.persist section")
	}
	if s.stats.Store.Persist == nil {
		s.stats.Store.Persist = &persistCounter{}
	}
	var err error
	if s.proc, err = readProc(srv.pid()); err != nil {
		return s, err
	}
	if s.logBytes, err = srv.logBytes(); err != nil {
		return s, err
	}
	s.sockBytes = c.read.Load()
	return s, nil
}

// counterWindow folds the samples taken over one measurement window into
// deltas and maxima. The π-cache hit counts add up the per-call windows the
// stats route reports (each call closes one), which survive cache resets.
type counterWindow struct {
	first, last      counterSample
	n                int
	dirtyMax         int
	entriesMax       int64
	pcHits, pcMisses int64
}

func (w *counterWindow) add(s counterSample) {
	if w.n == 0 {
		w.first = s
	} else {
		w.pcHits += s.stats.PCacheWindow.Hits
		w.pcMisses += s.stats.PCacheWindow.Misses
	}
	w.last = s
	w.n++
	w.dirtyMax = max(w.dirtyMax, s.stats.Store.DirtySessions)
	w.entriesMax = max(w.entriesMax, s.stats.PCache.Entries)
}

// counterDelta is what the server did between the first and last sample.
type counterDelta struct {
	cpuTicks, wchar                            uint64
	logBytes, sockBytes                        int64
	replays, recovered, fsyncs, persistRetries uint64
	reuses, rebuilds, compactions, resets      int64
	pcHits, pcMisses, entriesMax               int64
	dirtyMax                                   int
}

func (w *counterWindow) delta() counterDelta {
	a, b := w.first, w.last
	pa, pb := a.stats.Store.Persist, b.stats.Store.Persist
	return counterDelta{
		cpuTicks:       b.proc.CPUTicks - a.proc.CPUTicks,
		wchar:          b.proc.WChar - a.proc.WChar,
		logBytes:       b.logBytes - a.logBytes,
		sockBytes:      b.sockBytes - a.sockBytes,
		replays:        pb.Replays - pa.Replays,
		recovered:      pb.RecoveredSessions - pa.RecoveredSessions,
		fsyncs:         pb.Fsyncs - pa.Fsyncs,
		persistRetries: b.stats.Store.PersistRetries - a.stats.Store.PersistRetries,
		reuses:         b.stats.Live.Reuses - a.stats.Live.Reuses,
		rebuilds:       b.stats.Live.Rebuilds - a.stats.Live.Rebuilds,
		compactions:    b.stats.Live.Compactions - a.stats.Live.Compactions,
		resets:         b.stats.PCache.Resets - a.stats.PCache.Resets,
		pcHits:         w.pcHits,
		pcMisses:       w.pcMisses,
		entriesMax:     w.entriesMax,
		dirtyMax:       w.dirtyMax,
	}
}

// windowParts is how many equal parts the measurement window is cut into.
// The end-to-end rates and p50s are taken per part and reported as the
// median over the parts, so that a stall of the host that hits one or two
// parts does not move them.
const windowParts = 6

// windowPart is what the closed loop measured in one part of the window.
type windowPart struct {
	lat      map[string][]float64 // ms per successful request completed in the part
	sessions int                  // lifecycles completed in the part
	cpuTicks uint64               // server CPU over the part
}

// rssReadings is how many times the server's VmRSS is read while the
// prefix sessions complete; rss_mb is their median.
const rssReadings = 9

// windowResult is what the closed loop measured.
type windowResult struct {
	lat      map[string][]float64 // ms per successful request completed in the window
	sessions int                  // lifecycles completed in the window
	elapsed  time.Duration
	parts    []windowPart // the parts that ran to their end
	partLen  time.Duration
	ops      int // every request attempted, in the window or after it
	failed   int
	errs     []error
	dist     []float64 // result_distance of the prefix sessions, in index order
	rssKB    []float64 // server VmRSS readings over the second half of the prefix
	counters counterWindow
}

// requests counts the successful requests completed in the window.
func (r *windowResult) requests() int {
	n := 0
	for _, l := range r.lat {
		n += len(l)
	}
	return n
}

// runWindow drives sessions first, first+1, ... with the closed-loop
// clients for seconds, then lets the clients finish the session in hand.
// Clients keep going past the deadline only while the prefix sessions
// (first .. first+prefix-1) are incomplete. poll also samples /v1/stats
// every 100ms (the traced run, on durable workloads) for the maxima.
func runWindow(srv *serverProc, in *inputs, first int, seconds float64, poll bool) (*windowResult, error) {
	w := in.w
	cl := newHTTPClient(srv.base)
	defer cl.close()
	res := &windowResult{lat: map[string][]float64{}, dist: make([]float64, w.prefix)}
	s0, err := takeSample(srv, cl, w.durable)
	if err != nil {
		return nil, err
	}
	res.counters.add(s0)

	var mu sync.Mutex
	var sampleErr error
	addSample := func() {
		s, err := takeSample(srv, cl, w.durable)
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			sampleErr = err
			return
		}
		res.counters.add(s)
	}
	window := time.Duration(seconds * float64(time.Second))
	partLen := window / windowParts
	parts := make([]windowPart, windowParts)
	for i := range parts {
		parts[i].lat = map[string][]float64{}
	}
	// cpuMarks holds the server's CPU ticks at each part boundary reached.
	cpuMarks := []uint64{s0.proc.CPUTicks}
	start := time.Now()
	deadline := start.Add(window)
	// part is the index of the part an event completing at t falls in.
	part := func(t time.Time) int { return min(int(t.Sub(start)/partLen), windowParts-1) }
	prefixEnd, limit := first+w.prefix, in.count()
	prefixDone := 0
	// VmRSS is read rssReadings times, evenly over the second half of the
	// prefix: one reading would land anywhere in a collection cycle.
	rssStep := max(1, w.prefix/2/(rssReadings-1))
	var next atomic.Int64
	next.Store(int64(first))
	var clientsWG sync.WaitGroup
	allDone := make(chan struct{})
	for c := 0; c < clients; c++ {
		clientsWG.Add(1)
		go func() {
			defer clientsWG.Done()
			b := httpBackend{cl}
			for {
				idx := int(next.Add(1) - 1)
				if (limit > 0 && idx >= limit) || (idx >= prefixEnd && time.Now().After(deadline)) {
					return
				}
				sin, err := in.session(idx)
				if err != nil {
					mu.Lock()
					res.errs = append(res.errs, err)
					res.failed++
					mu.Unlock()
					return
				}
				rec := func(route string) func(bool) {
					t := time.Now()
					return func(ok bool) {
						end := time.Now()
						if ok && !end.After(deadline) {
							ms := float64(end.Sub(t)) / float64(time.Millisecond)
							mu.Lock()
							res.lat[route] = append(res.lat[route], ms)
							p := &parts[part(end)]
							p.lat[route] = append(p.lat[route], ms)
							mu.Unlock()
						}
					}
				}
				out, err := play(b, sin, rec)
				end := time.Now()
				mu.Lock()
				res.ops += out.ops
				res.failed += out.failed
				if err != nil {
					res.errs = append(res.errs, err)
				} else {
					if !end.After(deadline) {
						res.sessions++
						parts[part(end)].sessions++
					}
					if idx < prefixEnd {
						res.dist[idx-first] = out.distance
						prefixDone++
						if prefixDone*2 >= w.prefix && (w.prefix-prefixDone)%rssStep == 0 {
							if p, perr := readProc(srv.pid()); perr == nil {
								res.rssKB = append(res.rssKB, float64(p.RSSKB))
							} else {
								res.errs = append(res.errs, perr)
							}
						}
					}
				}
				mu.Unlock()
			}
		}()
	}
	go func() {
		clientsWG.Wait()
		close(allDone)
	}()

	// The window closes at the deadline, or earlier when the sessions run
	// out (restart drains a fixed fill).
	var tick <-chan time.Time
	if poll {
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		tick = t.C
	}
	partTick := time.NewTicker(partLen)
	defer partTick.Stop()
	timer := time.NewTimer(time.Until(deadline))
	defer timer.Stop()
	full := false
	for closed := false; !closed; {
		select {
		case <-tick:
			addSample()
		case <-partTick.C:
			if len(cpuMarks) < windowParts {
				p, err := readProc(srv.pid())
				if err != nil {
					return nil, fmt.Errorf("counter sampler: %w", err)
				}
				cpuMarks = append(cpuMarks, p.CPUTicks)
			}
		case <-timer.C:
			closed, full = true, true
		case <-allDone:
			closed = true
		}
	}
	res.elapsed = min(time.Since(start), window)
	addSample()
	<-allDone
	if sampleErr != nil {
		return nil, fmt.Errorf("counter sampler: %w", sampleErr)
	}
	// A window the sessions ran out of early (restart drains a fixed fill)
	// keeps only the parts that ran to their end; one too short for any
	// counts as a single part.
	if full {
		cpuMarks = append(cpuMarks[:min(len(cpuMarks), windowParts)], res.counters.last.proc.CPUTicks)
	}
	res.partLen = partLen
	for i := 0; i+1 < len(cpuMarks); i++ {
		parts[i].cpuTicks = cpuMarks[i+1] - cpuMarks[i]
		res.parts = append(res.parts, parts[i])
	}
	if len(res.parts) == 0 {
		res.partLen = res.elapsed
		res.parts = []windowPart{{lat: res.lat, sessions: res.sessions, cpuTicks: res.counters.delta().cpuTicks}}
	}
	if prefixDone < w.prefix && res.failed == 0 {
		return nil, fmt.Errorf("only %d of %d prefix sessions ran (fill too small?)", prefixDone, w.prefix)
	}
	return res, nil
}
