package persist

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"crowdtopk/internal/session"
)

// ErrInjected marks a failure manufactured by a FaultStore. Callers treat it
// like any other backend error — that is the point — but tests and operators
// reading logs can tell a chaos-run fault from a real one with errors.Is.
var ErrInjected = errors.New("persist: injected fault")

// Op names one Store operation class for fault targeting.
type Op string

// The operation classes a FaultSpec can target.
const (
	OpPut    Op = "put"
	OpGet    Op = "get"
	OpDelete Op = "delete"
	OpFlush  Op = "flush"
)

var allOps = []Op{OpPut, OpGet, OpDelete, OpFlush}

// FaultSpec is a deterministic, seedable fault schedule for a FaultStore.
// Schedules are reproducible: the same spec over the same operation sequence
// injects the same faults (rates draw from one seeded generator).
type FaultSpec struct {
	// Seed feeds the generator behind ErrRate/TornRate draws and torn-write
	// cut sizes (0 seeds with 1, so the zero spec is still deterministic).
	Seed int64
	// Latency is injected before every operation.
	Latency time.Duration
	// ErrEvery fails every Nth operation of the keyed class.
	ErrEvery map[Op]int
	// ErrRate fails the keyed class with this probability per operation.
	ErrRate map[Op]float64
	// TornEvery turns every Nth Put into a torn write: the WAL append is
	// deliberately cut short, leaving a partial frame on disk, and the Put
	// reports failure — what a crash or full disk mid-append produces.
	TornEvery int
	// TornRate tears Puts with this probability.
	TornRate float64
	// WedgeAfter wedges the store (every operation blocks) once this many
	// operations have executed; 0 never auto-wedges. Unwedge or Heal
	// releases the blocked callers.
	WedgeAfter int
}

// ParseFaultSpec decodes the -fault-spec wire form: comma-separated clauses
//
//	<op>.err.every=N    fail every Nth <op> (put, get, delete, flush)
//	<op>.err.rate=P     fail <op> with probability P in [0,1]
//	put.torn.every=N    tear every Nth put (short WAL write + failure)
//	put.torn.rate=P     tear puts with probability P
//	latency=DUR         sleep DUR before every operation (e.g. 5ms)
//	wedge.after=N       block every operation once N operations have run
//	seed=N              seed the probability draws
//
// e.g. "put.err.rate=0.2,put.torn.every=7,latency=2ms,seed=42".
func ParseFaultSpec(s string) (FaultSpec, error) {
	spec := FaultSpec{ErrEvery: map[Op]int{}, ErrRate: map[Op]float64{}}
	for _, clause := range strings.Split(s, ",") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		key, val, ok := strings.Cut(clause, "=")
		if !ok {
			return FaultSpec{}, fmt.Errorf("persist: fault spec clause %q: want key=value", clause)
		}
		switch {
		case key == "latency":
			d, err := time.ParseDuration(val)
			if err != nil || d < 0 {
				return FaultSpec{}, fmt.Errorf("persist: fault spec latency %q: %v", val, err)
			}
			spec.Latency = d
		case key == "seed":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return FaultSpec{}, fmt.Errorf("persist: fault spec seed %q: %v", val, err)
			}
			spec.Seed = n
		case key == "wedge.after":
			n, err := strconv.Atoi(val)
			if err != nil || n < 1 {
				return FaultSpec{}, fmt.Errorf("persist: fault spec wedge.after %q: want a positive count", val)
			}
			spec.WedgeAfter = n
		case key == "put.torn.every":
			n, err := strconv.Atoi(val)
			if err != nil || n < 1 {
				return FaultSpec{}, fmt.Errorf("persist: fault spec put.torn.every %q: want a positive count", val)
			}
			spec.TornEvery = n
		case key == "put.torn.rate":
			p, err := strconv.ParseFloat(val, 64)
			if err != nil || !(p >= 0 && p <= 1) { // ! form rejects NaN too
				return FaultSpec{}, fmt.Errorf("persist: fault spec put.torn.rate %q: want a probability", val)
			}
			spec.TornRate = p
		case strings.HasSuffix(key, ".err.every"):
			op, err := faultOp(strings.TrimSuffix(key, ".err.every"))
			if err != nil {
				return FaultSpec{}, err
			}
			n, aerr := strconv.Atoi(val)
			if aerr != nil || n < 1 {
				return FaultSpec{}, fmt.Errorf("persist: fault spec %s=%q: want a positive count", key, val)
			}
			spec.ErrEvery[op] = n
		case strings.HasSuffix(key, ".err.rate"):
			op, err := faultOp(strings.TrimSuffix(key, ".err.rate"))
			if err != nil {
				return FaultSpec{}, err
			}
			p, perr := strconv.ParseFloat(val, 64)
			if perr != nil || !(p >= 0 && p <= 1) { // ! form rejects NaN too
				return FaultSpec{}, fmt.Errorf("persist: fault spec %s=%q: want a probability", key, val)
			}
			spec.ErrRate[op] = p
		default:
			return FaultSpec{}, fmt.Errorf("persist: unknown fault spec clause %q", clause)
		}
	}
	return spec, nil
}

func faultOp(s string) (Op, error) {
	for _, op := range allOps {
		if s == string(op) {
			return op, nil
		}
	}
	return "", fmt.Errorf("persist: unknown fault spec op %q", s)
}

// FaultStore wraps a File with deterministic fault injection: scheduled
// errors, probabilistic errors, injected latency, torn WAL writes and a
// wedged mode where every operation blocks until the store is unwedged. It
// is how the torture tests — and `crowdtopk serve -fault-spec` chaos runs —
// produce the failures disks produce in production, on demand and
// reproducibly. Scan, Quarantine and Counters are never injected, so the
// serving layer's boot scan, quarantine and stats behave exactly as they
// would over the naked File.
type FaultStore struct {
	inner *File

	mu      sync.Mutex
	spec    FaultSpec
	rng     *rand.Rand
	opCount map[Op]uint64
	total   uint64
	wedged  bool
	unwedge chan struct{}

	injected atomic.Uint64
	tornPuts atomic.Uint64
}

// NewFaultStore wraps inner with the given fault schedule.
func NewFaultStore(inner *File, spec FaultSpec) *FaultStore {
	seed := spec.Seed
	if seed == 0 {
		seed = 1
	}
	return &FaultStore{
		inner:   inner,
		spec:    spec,
		rng:     rand.New(rand.NewSource(seed)),
		opCount: make(map[Op]uint64),
	}
}

// SetSpec replaces the fault schedule (operation counters keep running; the
// probability generator is reseeded). Heal() is SetSpec with the zero spec
// plus an unwedge.
func (f *FaultStore) SetSpec(spec FaultSpec) {
	seed := spec.Seed
	if seed == 0 {
		seed = 1
	}
	f.mu.Lock()
	f.spec = spec
	f.rng = rand.New(rand.NewSource(seed))
	f.mu.Unlock()
}

// Heal clears every configured fault and releases wedged callers: the
// backend behaves like the naked inner store from here on.
func (f *FaultStore) Heal() {
	f.mu.Lock()
	f.spec = FaultSpec{}
	f.unwedgeLocked()
	f.mu.Unlock()
}

// Wedge blocks every subsequent operation until Unwedge (or Heal, or Close).
func (f *FaultStore) Wedge() {
	f.mu.Lock()
	f.wedgeLocked()
	f.mu.Unlock()
}

// Unwedge releases every blocked operation.
func (f *FaultStore) Unwedge() {
	f.mu.Lock()
	f.unwedgeLocked()
	f.mu.Unlock()
}

func (f *FaultStore) wedgeLocked() {
	if !f.wedged {
		f.wedged = true
		f.unwedge = make(chan struct{})
	}
}

func (f *FaultStore) unwedgeLocked() {
	if f.wedged {
		f.wedged = false
		close(f.unwedge)
	}
}

// InjectedFaults reports how many operations failed by injection (torn puts
// included).
func (f *FaultStore) InjectedFaults() uint64 { return f.injected.Load() }

// TornPuts reports how many Puts were turned into torn writes.
func (f *FaultStore) TornPuts() uint64 { return f.tornPuts.Load() }

// before runs the common fault pipeline for one operation: count it, apply
// latency, block while wedged, then decide scheduled/probabilistic failure.
func (f *FaultStore) before(op Op) error {
	f.mu.Lock()
	f.total++
	f.opCount[op]++
	n := f.opCount[op]
	sp := f.spec
	if sp.WedgeAfter > 0 && f.total >= uint64(sp.WedgeAfter) {
		f.wedgeLocked()
	}
	wedged := f.wedged
	gate := f.unwedge
	inject := false
	if e := sp.ErrEvery[op]; e > 0 && n%uint64(e) == 0 {
		inject = true
	}
	if r := sp.ErrRate[op]; r > 0 && f.rng.Float64() < r {
		inject = true
	}
	f.mu.Unlock()
	if sp.Latency > 0 {
		time.Sleep(sp.Latency)
	}
	if wedged {
		<-gate
	}
	if inject {
		f.injected.Add(1)
		return fmt.Errorf("%w: %s #%d", ErrInjected, op, n)
	}
	return nil
}

// tearNow decides (deterministically, under the seeded generator) whether
// this Put becomes a torn write, and how many bytes to cut from its tail.
func (f *FaultStore) tearNow() (bool, int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	sp := f.spec
	tear := false
	if sp.TornEvery > 0 && f.opCount[OpPut]%uint64(sp.TornEvery) == 0 {
		tear = true
	}
	if sp.TornRate > 0 && f.rng.Float64() < sp.TornRate {
		tear = true
	}
	if !tear {
		return false, 0
	}
	return true, 1 + f.rng.Intn(walHeaderLen+walCRCLen)
}

// Put forwards to the inner store unless the schedule injects an error or a
// torn write.
func (f *FaultStore) Put(id string, sess *session.Session) error {
	if err := f.before(OpPut); err != nil {
		return err
	}
	if tear, cut := f.tearNow(); tear {
		f.injected.Add(1)
		f.tornPuts.Add(1)
		return f.inner.putTorn(id, sess, cut)
	}
	return f.inner.Put(id, sess)
}

// Get forwards to the inner store unless the schedule injects an error.
func (f *FaultStore) Get(id string) (*session.Session, error) {
	if err := f.before(OpGet); err != nil {
		return nil, err
	}
	return f.inner.Get(id)
}

// Delete forwards to the inner store unless the schedule injects an error.
func (f *FaultStore) Delete(id string) error {
	if err := f.before(OpDelete); err != nil {
		return err
	}
	return f.inner.Delete(id)
}

// Flush forwards to the inner store unless the schedule injects an error.
func (f *FaultStore) Flush() error {
	if err := f.before(OpFlush); err != nil {
		return err
	}
	return f.inner.Flush()
}

// Close releases wedged callers and closes the inner store. Shutdown is
// never fault-injected: a chaos run must still exit cleanly.
func (f *FaultStore) Close() error {
	f.Unwedge()
	return f.inner.Close()
}

// Counters forwards the inner store's activity counters, keeping /v1/stats
// intact under injection.
func (f *FaultStore) Counters() CounterSnapshot { return f.inner.Counters() }

// Scan forwards the boot scan.
func (f *FaultStore) Scan() (ScanResult, error) { return f.inner.Scan() }

// Quarantine forwards to the inner store.
func (f *FaultStore) Quarantine(id, reason, detail string) error {
	return f.inner.Quarantine(id, reason, detail)
}
