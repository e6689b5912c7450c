// Command perfbench is the serving benchmark of crowdtopk. It boots the
// `crowdtopk serve` binary built from the same checkout, drives one workload
// over HTTP with closed-loop clients, checks every reply, and prints each
// metric with its unit and sample count, then one JSON result line. With
// -trace 1 it also replays a fixed prefix of the workload's sessions down
// the layer ladder (HTTP, service, session, primitives) and prints the
// per-layer metrics instead of the end-to-end ones.
//
// Run it through run.sh from the checkout root, which builds both binaries:
//
//	bash perfbench/run.sh --workload catalog --seed 1 --seconds 30 --trace 0
//
// --workload all runs every workload in turn, each ending in its JSON line.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"
)

func main() {
	workloadName := flag.String("workload", "catalog", "workload: catalog, durable or restart; all runs each in turn")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 30, "measurement window in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced layer ladder and reports per-layer metrics")
	bin := flag.String("bin", "", "crowdtopk binary of the commit under test")
	work := flag.String("work", "", "scratch directory inside the checkout")
	flag.Parse()
	if *bin == "" || *work == "" || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: -bin and -work are required and -seconds must be positive")
		os.Exit(2)
	}
	todo := workloads
	if *workloadName != "all" {
		w, err := workloadByName(*workloadName)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(2)
		}
		todo = []workload{w}
	}
	correct := true
	for _, w := range todo {
		if len(todo) > 1 {
			fmt.Printf("== %s\n", w.name)
		}
		rep, err := run(w, *seed, *seconds, *trace == 1, *bin, *work)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		rep.print(os.Stdout)
		correct = correct && rep.Correct
	}
	if !correct {
		os.Exit(1)
	}
}

// metric is one reported number.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	samples int
}

// report is a run's outcome. Metrics holds what the JSON line carries;
// extra holds metrics printed for people only.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	extra     map[string]metric
	notes     []string
}

func (r *report) set(name string, v float64, unit string, samples int) {
	r.Metrics[name] = metric{Value: v, Unit: unit, samples: samples}
}

func (r *report) print(f io.Writer) {
	all := map[string]metric{}
	for k, v := range r.extra {
		all[k] = v
	}
	for k, v := range r.Metrics {
		all[k] = v
	}
	names := make([]string, 0, len(all))
	for k := range all {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, n := range r.notes {
		fmt.Fprintln(f, "#", n)
	}
	for _, n := range names {
		m := all[n]
		fmt.Fprintf(f, "%-34s %14.6g %-6s n=%d\n", n, m.Value, m.Unit, m.samples)
	}
	out, _ := json.Marshal(r)
	fmt.Fprintln(f, string(out))
}

// run prepares the workload's inputs, sets the server up setupReps times,
// measures one window on the last server and, when traced, runs the ladder.
func run(w workload, seed int64, seconds float64, traced bool, bin, work string) (*report, error) {
	runDir := filepath.Join(work, "runs", fmt.Sprintf("%s-%d-%d", w.name, seed, os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return nil, err
	}
	defer func() {
		// Flush the deletions now, so that their writeback does not land
		// in the next run's window.
		_ = os.RemoveAll(runDir)
		syscall.Sync()
	}()
	var fill *fillManifest
	var fillDir string
	if w.restart {
		var err error
		if fillDir, fill, err = ensureFill(w, work); err != nil {
			return nil, err
		}
	}
	in, err := newInputs(w, seed, fill)
	if err != nil {
		return nil, err
	}
	cpuMS := cpuProbe()
	fsyncMS, err := fsyncProbe(runDir)
	if err != nil {
		return nil, err
	}
	phase := time.Now()
	srv, setups, first, err := setUp(w, in, bin, runDir, fillDir)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s set up %d times in %.1fs\n", w.name, setupReps, time.Since(phase).Seconds())
	defer func() {
		if srv != nil {
			srv.kill()
		}
	}()
	// Start the window with no dirty pages left from setting up.
	syscall.Sync()
	phase = time.Now()
	win, err := runWindow(srv, in, first, seconds, traced && w.durable)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: window of %.1fs took %.1fs\n", win.elapsed.Seconds(), time.Since(phase).Seconds())
	rep := &report{Metrics: map[string]metric{}, extra: map[string]metric{}}
	rep.extra["host.cpu_probe_ms"] = metric{Value: cpuMS, Unit: "ms", samples: cpuProbeReps}
	rep.extra["host.fsync_probe_ms"] = metric{Value: fsyncMS, Unit: "ms", samples: fsyncProbeReps}
	rep.Attempted, rep.Failed = win.ops, win.failed
	for i, e := range win.errs {
		if i == 5 {
			fmt.Fprintf(os.Stderr, "perfbench: ... %d more failures\n", len(win.errs)-5)
			break
		}
		fmt.Fprintln(os.Stderr, "perfbench:", e)
	}
	if traced {
		phase = time.Now()
		lad, err := runLadder(w, in, bin, runDir, fillDir, seed, work)
		if err != nil {
			return nil, err
		}
		rep.Attempted += lad.ops
		rep.Failed += lad.failed
		fmt.Fprintf(os.Stderr, "perfbench: ladder took %.1fs\n", time.Since(phase).Seconds())
		layerMetrics(rep, w, win, lad)
		rep.notes = append(rep.notes, lad.notes...)
	} else {
		endToEnd(rep, w, win, setups)
	}
	phase = time.Now()
	err = srv.stop()
	srv = nil
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: server stopped in %.1fs\n", time.Since(phase).Seconds())
	rep.Correct = rep.Failed == 0
	return rep, nil
}

// setUp boots the server setupReps times and runs one untimed warm-up
// session per client after each boot. Memory-only and durable boots get a
// fresh data dir each; restart boots all run on one copy of the fill, each
// warm-up draining the next fill entries. It keeps the last server running
// and returns the index of the first session the window should drive.
func setUp(w workload, in *inputs, bin, runDir, fillDir string) (*serverProc, []float64, int, error) {
	var setups []float64
	dataDir := ""
	if w.restart {
		dataDir = filepath.Join(runDir, "data")
		if err := copyTree(fillDataDir(fillDir), dataDir); err != nil {
			return nil, nil, 0, err
		}
	}
	for rep := 0; rep < setupReps; rep++ {
		if w.durable && !w.restart {
			dataDir = filepath.Join(runDir, "data-"+strconv.Itoa(rep))
		}
		logPath := filepath.Join(runDir, "server-"+strconv.Itoa(rep)+".log")
		start := time.Now()
		srv, err := startServer(bin, logPath, dataDir)
		if err != nil {
			return nil, nil, 0, err
		}
		if err := warmUp(srv, in, rep); err != nil {
			srv.kill()
			return nil, nil, 0, fmt.Errorf("warm-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		if rep == setupReps-1 {
			first := 0
			if w.restart {
				first = setupReps * clients
			}
			return srv, setups, first, nil
		}
		if err := srv.stop(); err != nil {
			return nil, nil, 0, err
		}
	}
	panic("unreachable")
}

// warmUp plays one session per client, concurrently, without timing it.
// On restart the sessions are the fill entries after the previous boots'.
func warmUp(srv *serverProc, in *inputs, rep int) error {
	cl := newHTTPClient(srv.base)
	defer cl.close()
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			idx := warmIdx + c
			if in.w.restart {
				idx = rep*clients + c
			}
			sin, err := in.session(idx)
			if err == nil {
				_, err = play(httpBackend{cl}, sin, func(string) func(bool) { return func(bool) {} })
			}
			errs[c] = err
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// endToEnd fills the JSON metrics of a measurement run. Rates and medians
// are taken per part of the window and reported as the median over the
// parts. Tails are taken over the whole window, so that at least ten
// samples lie beyond them: catalog makes only 400 to 600 creates a window.
// Percentiles are nearest-rank over the successful requests.
func endToEnd(rep *report, w workload, win *windowResult, setups []float64) {
	secs := win.partLen.Seconds()
	// overParts is the median over the parts of f, skipping the parts f
	// has no value for.
	overParts := func(f func(p windowPart) (float64, bool)) float64 {
		var vs []float64
		for _, p := range win.parts {
			if v, ok := f(p); ok {
				vs = append(vs, v)
			}
		}
		return median(vs)
	}
	rep.set("setup_s", median(setups), "s", len(setups))
	rep.set("sessions_per_s", overParts(func(p windowPart) (float64, bool) {
		return float64(p.sessions) / secs, true
	}), "1/s", win.sessions)
	rep.set("cpu_ms_per_session", overParts(func(p windowPart) (float64, bool) {
		return float64(p.cpuTicks) * 1000 / clockTicksPerSecond / float64(p.sessions), p.sessions > 0
	}), "ms", win.sessions)
	start := "create"
	if w.restart {
		start = "hydrate"
	}
	lat := func(name, route string, q float64, dst map[string]metric) {
		n := len(win.lat[route])
		if n == 0 {
			return
		}
		v := percentile(win.lat[route], q)
		if q == 50 {
			v = overParts(func(p windowPart) (float64, bool) {
				return percentile(p.lat[route], q), len(p.lat[route]) > 0
			})
		}
		dst[name] = metric{Value: v, Unit: "ms", samples: n}
	}
	lat("start_p50_ms", start, 50, rep.Metrics)
	lat("start_p95_ms", start, 95, rep.Metrics)
	lat("answers_p50_ms", "answers", 50, rep.Metrics)
	lat("answers_p95_ms", "answers", 95, rep.Metrics)
	lat("questions_p50_ms", "questions", 50, rep.Metrics)
	lat("result_p50_ms", "result", 50, rep.Metrics)
	// Route-named latencies and more percentiles, printed for people.
	lat("create_p50_ms", "create", 50, rep.extra)
	lat("create_p99_ms", "create", 99, rep.extra)
	lat("start_p99_ms", start, 99, rep.extra)
	lat("answers_p99_ms", "answers", 99, rep.extra)
	lat("hydrate_p50_ms", "hydrate", 50, rep.extra)
	lat("hydrate_p99_ms", "hydrate", 99, rep.extra)
	rep.set("rss_mb", median(win.rssKB)/1024, "MB", len(win.rssKB))
	rep.set("result_distance", mean(win.dist), "1", len(win.dist))
	rep.extra["failed_share"] = metric{Value: ratio(float64(win.failed), float64(win.ops)), Unit: "1", samples: win.ops}
}
