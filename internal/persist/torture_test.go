package persist

import (
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// -torture.seed reruns the randomized torture schedules under a chosen seed;
// the default keeps CI deterministic while a soak loop can sweep seeds:
//
//	for s in $(seq 100); do go test -run Torture -torture.seed=$s ./internal/persist/; done
var tortureSeed = flag.Int64("torture.seed", 1, "seed for the randomized persistence torture schedules")

func TestParseFaultSpec(t *testing.T) {
	spec, err := ParseFaultSpec("put.err.rate=0.25, get.err.every=3,put.torn.every=7,put.torn.rate=0.1,latency=2ms,wedge.after=50,seed=42")
	if err != nil {
		t.Fatal(err)
	}
	if spec.ErrRate[OpPut] != 0.25 || spec.ErrEvery[OpGet] != 3 || spec.TornEvery != 7 ||
		spec.TornRate != 0.1 || spec.Latency != 2*time.Millisecond || spec.WedgeAfter != 50 || spec.Seed != 42 {
		t.Fatalf("parsed spec = %+v", spec)
	}
	if spec, err := ParseFaultSpec(""); err != nil || spec.Latency != 0 {
		t.Fatalf("empty spec: %+v, %v", spec, err)
	}
	for _, bad := range []string{
		"nonsense", "put.err.rate=2", "put.err.every=0", "teleport.err.rate=0.5",
		"latency=-1s", "wedge.after=x", "put.torn.rate=nan", "list.err.every=1",
	} {
		if _, err := ParseFaultSpec(bad); err == nil {
			t.Errorf("ParseFaultSpec(%q) accepted", bad)
		}
	}
}

// TestFaultStoreSchedule pins the deterministic injection surface: every-Nth
// failures land exactly on schedule, injected errors are classifiable, wedged
// operations block until released, and Heal restores the naked backend.
func TestFaultStoreSchedule(t *testing.T) {
	s, _ := newTestSession(t, 5, 2, 6)
	inner, err := NewFile(FileOptions{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	fs := NewFaultStore(inner, FaultSpec{ErrEvery: map[Op]int{OpPut: 3}})
	var errs int
	for i := 1; i <= 9; i++ {
		err := fs.Put("s_a", s)
		if i%3 == 0 {
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("put %d: %v, want injected", i, err)
			}
			errs++
		} else if err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	if errs != 3 || fs.InjectedFaults() != 3 {
		t.Fatalf("injected %d faults (counter %d), want 3", errs, fs.InjectedFaults())
	}

	// A wedged store blocks callers until Unwedge releases them.
	fs.Wedge()
	done := make(chan error, 1)
	go func() { done <- fs.Put("s_a", s) }()
	select {
	case err := <-done:
		t.Fatalf("wedged put returned early: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	fs.Unwedge()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("unwedged put: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("unwedged put still blocked")
	}

	// Heal clears the schedule entirely.
	fs.SetSpec(FaultSpec{ErrRate: map[Op]float64{OpPut: 1}})
	if err := fs.Put("s_a", s); !errors.Is(err, ErrInjected) {
		t.Fatalf("rate-1 put: %v, want injected", err)
	}
	fs.Heal()
	for i := 0; i < 5; i++ {
		if err := fs.Put("s_a", s); err != nil {
			t.Fatalf("healed put: %v", err)
		}
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestTornPutThenRetryRecoversAll is the damaged-tail regression test: a torn
// WAL append (partial frame on disk, Put reports failure) followed by a
// successful retry must leave every acknowledged answer recoverable. Without
// the truncate-before-append repair the retried frames land after the garbage
// and recovery silently drops them as a "torn tail".
func TestTornPutThenRetryRecoversAll(t *testing.T) {
	dir := t.TempDir()
	inner, err := NewFile(FileOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	fs := NewFaultStore(inner, FaultSpec{})
	s, cr := newTestSession(t, 7, 3, 12)
	if err := fs.Put("s_t", s); err != nil {
		t.Fatal(err)
	}
	answerN(t, s, cr, 3, nil)
	if err := fs.Put("s_t", s); err != nil {
		t.Fatal(err)
	}

	// Tear the next put: its delta reaches the disk cut short.
	fs.SetSpec(FaultSpec{TornRate: 1})
	answerN(t, s, cr, 2, nil)
	if err := fs.Put("s_t", s); !errors.Is(err, ErrInjected) {
		t.Fatalf("torn put: %v, want injected", err)
	}
	if fs.TornPuts() != 1 {
		t.Fatalf("torn puts = %d, want 1", fs.TornPuts())
	}

	// The retry (as the service's persister would issue) must succeed and
	// must not bury the re-sent records behind the partial frame.
	fs.Heal()
	answerN(t, s, cr, 1, nil)
	if err := fs.Put("s_t", s); err != nil {
		t.Fatalf("retry put: %v", err)
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := NewFile(FileOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	got, err := st2.Get("s_t")
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, got, s)
}

// TestTorturePersist is the randomized persistence torture harness:
// concurrent sessions write through a FaultStore over the file backend with
// probabilistic injected errors and torn WAL appends, the "process" is killed
// hot between cycles (the store is abandoned, never flushed or closed), and
// after every crash each session must recover every answer whose Put was
// acknowledged — more is acceptable (a torn batch persists a prefix), less is
// data loss.
func TestTorturePersist(t *testing.T) {
	if testing.Short() {
		t.Skip("torture harness is seconds-long; skipped with -short")
	}
	const (
		sessions = 4
		cycles   = 3
		rounds   = 6 // put attempts per session per cycle
	)
	dir := t.TempDir()
	root := rand.New(rand.NewSource(*tortureSeed))

	type track struct {
		id      string
		durable int // asked high-water of the last acknowledged Put
		live    int // answers submitted to the live session
		done    bool
	}
	tracks := make([]*track, sessions)
	for i := range tracks {
		tracks[i] = &track{id: fmt.Sprintf("s_torture%d", i)}
	}

	for cycle := 0; cycle < cycles; cycle++ {
		inner, err := NewFile(FileOptions{Dir: dir, SnapshotEvery: 5})
		if err != nil {
			t.Fatalf("cycle %d: reopen: %v", cycle, err)
		}
		fs := NewFaultStore(inner, FaultSpec{
			Seed:     root.Int63() + 1,
			ErrRate:  map[Op]float64{OpPut: 0.3},
			TornRate: 0.2,
		})

		var wg sync.WaitGroup
		errc := make(chan error, sessions)
		for _, tr := range tracks {
			wg.Add(1)
			go func(tr *track, seed int64) {
				defer wg.Done()
				// Recover (or create) the live copy. Get is not injected for
				// this schedule, so failures here are real corruption.
				sess, cr := newTestSession(t, 6, 2, 24)
				if cycle > 0 {
					switch got, err := fs.Get(tr.id); {
					case errors.Is(err, ErrNotFound) && tr.durable == 0:
						// Every Put last cycle was injected before anything
						// reached disk; starting over is the correct recovery.
						tr.live = 0
					case err != nil:
						errc <- fmt.Errorf("%s cycle %d: recover: %w", tr.id, cycle, err)
						return
					default:
						recovered := got.Status().Asked
						if recovered < tr.durable || recovered > tr.live {
							errc <- fmt.Errorf("%s cycle %d: recovered %d answers, want in [%d, %d]",
								tr.id, cycle, recovered, tr.durable, tr.live)
							return
						}
						sess = got
						tr.live = recovered
						tr.durable = recovered
					}
				}
				rng := rand.New(rand.NewSource(seed))
				for r := 0; r < rounds && !sess.State().Terminal(); r++ {
					tr.live += answerN(t, sess, cr, 1+rng.Intn(3), nil)
					if err := fs.Put(tr.id, sess); err != nil {
						if !errors.Is(err, ErrInjected) {
							errc <- fmt.Errorf("%s cycle %d round %d: put: %w", tr.id, cycle, r, err)
							return
						}
						continue // dirty; a later round retries with more answers
					}
					tr.durable = sess.Status().Asked
				}
				tr.done = sess.State().Terminal()
				errc <- nil
			}(tr, root.Int63())
		}
		wg.Wait()
		close(errc)
		for err := range errc {
			if err != nil {
				t.Fatal(err)
			}
		}
		// Crash: abandon the store hot. No Flush, no Close — open handles die
		// with the "process".
		_ = inner
	}

	// Final verification pass over a healed backend: everything every session
	// ever acknowledged is present and the sessions replay cleanly.
	final, err := NewFile(FileOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer final.Close()
	onDisk := 0
	for _, tr := range tracks {
		got, err := final.Get(tr.id)
		if tr.durable == 0 && errors.Is(err, ErrNotFound) {
			continue // nothing was ever acknowledged for this session
		}
		if err != nil {
			t.Fatalf("%s: final recover: %v", tr.id, err)
		}
		onDisk++
		asked := got.Status().Asked
		if asked < tr.durable || asked > tr.live {
			t.Errorf("%s: final state has %d answers, want in [%d, %d]", tr.id, asked, tr.durable, tr.live)
		}
	}

	// The data dir survived the torture in fsck-clean shape (torn tails are
	// healthy by design — recovery tolerates them — but report them).
	rep, err := Fsck(dir, FsckOptions{Deep: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Unhealthy != 0 {
		t.Fatalf("fsck after torture: %d unhealthy sessions: %+v", rep.Unhealthy, rep.Sessions)
	}
	if rep.Healthy != onDisk {
		t.Fatalf("fsck after torture: %d healthy sessions, want %d", rep.Healthy, onDisk)
	}
}

// TestFsckReportsAndRepairs pins the offline checker: a healthy dir, a torn
// tail (repairable), and a corrupt snapshot (unhealthy) are each classified,
// and -repair truncates the torn tail in place.
func TestFsckReportsAndRepairs(t *testing.T) {
	dir := t.TempDir()
	st, err := NewFile(FileOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	s, cr := newTestSession(t, 6, 2, 10)
	if err := st.Put("s_clean", s); err != nil {
		t.Fatal(err)
	}
	answerN(t, s, cr, 3, func() {
		if err := st.Put("s_clean", s); err != nil {
			t.Fatal(err)
		}
	})

	fs := NewFaultStore(st, FaultSpec{})
	s2, cr2 := newTestSession(t, 6, 2, 10)
	if err := fs.Put("s_torn", s2); err != nil {
		t.Fatal(err)
	}
	answerN(t, s2, cr2, 2, nil)
	if err := fs.Put("s_torn", s2); err != nil {
		t.Fatal(err)
	}
	fs.SetSpec(FaultSpec{TornRate: 1})
	answerN(t, s2, cr2, 1, nil)
	if err := fs.Put("s_torn", s2); !errors.Is(err, ErrInjected) {
		t.Fatalf("torn put: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	rep, err := Fsck(dir, FsckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Healthy != 2 || rep.Unhealthy != 0 || rep.TornTails != 1 || rep.Repaired != 0 {
		t.Fatalf("report = %d healthy / %d unhealthy / %d torn / %d repaired, want 2/0/1/0",
			rep.Healthy, rep.Unhealthy, rep.TornTails, rep.Repaired)
	}

	rep, err = Fsck(dir, FsckOptions{Repair: true, Deep: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TornTails != 1 || rep.Repaired != 1 {
		t.Fatalf("repair run: %d torn / %d repaired, want 1/1", rep.TornTails, rep.Repaired)
	}
	rep, err = Fsck(dir, FsckOptions{Deep: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TornTails != 0 || rep.Unhealthy != 0 {
		t.Fatalf("after repair: %d torn / %d unhealthy, want 0/0", rep.TornTails, rep.Unhealthy)
	}
}
