// Package crowdtopk processes top-K queries over uncertain data with
// crowdsourced uncertainty reduction, reproducing Ciceri, Fraternali,
// Martinenghi and Tagliasacchi, "Crowdsourcing for Top-K Query Processing
// over Uncertain Data" (ICDE 2016 / IEEE TKDE 28(1), 2016).
//
// Tuples have uncertain scores modelled as bounded continuous random
// variables. Overlapping score distributions leave the top-K result
// ambiguous: a whole tree of orderings (TPO) is compatible with the data.
// Asking a crowd pairwise questions — "does a rank above b?" — prunes that
// tree. Given a question budget, this library selects the questions that
// minimize the expected residual uncertainty of the result, using the
// paper's offline (TB-off, C-off, A*-off), online (T1-on, A*-on) and
// incremental (incr) strategies, under four uncertainty measures (entropy,
// weighted entropy, ORA- and MPO-distance).
//
// # Quickstart
//
//	scores := []crowdtopk.Uncertain{
//		crowdtopk.UniformScore(0.7, 0.2), // photo A: estimated 0.7 ± 0.1
//		crowdtopk.UniformScore(0.6, 0.3),
//		crowdtopk.UniformScore(0.8, 0.4),
//	}
//	ds, err := crowdtopk.NewDataset(scores)
//	...
//	res, err := crowdtopk.Process(ds, crowdtopk.Query{K: 2, Budget: 5}, myCrowd)
//	fmt.Println(res.Ranking, res.Resolved)
//
// A Crowd is anything that can answer comparison questions: a real
// crowdsourcing integration, an interactive prompt, or the simulator in this
// repository. See the examples/ directory for runnable end-to-end programs
// and DESIGN.md for the system inventory and experiment index.
//
// # Asynchronous sessions
//
// Process blocks on the Crowd callback, which suits simulations but not real
// platforms, where answers arrive minutes or hours later. NewSession inverts
// the callback into a pull/push state machine that holds the query open for
// as long as the crowd needs:
//
//	              NextQuestions            SubmitAnswer
//	┌─────────┐  (deliver work)  ┌──────────────────┐ ──┐
//	│ Created ├─────────────────▶│ AwaitingAnswers  │   │ answers condition
//	└────┬────┘                  └───────┬──────────┘ ◀─┘ the orderings
//	     │                               │
//	     │ nothing to ask                │ single ordering left ──▶ Converged
//	     │ (budget 0)                    │ questions spent,
//	     └──────────────▶ terminal ◀─────┘ uncertainty remains ──▶ Exhausted
//
// NextQuestions returns the strategy's currently best pending questions
// (idempotently — a crashed client pulls the same work again), SubmitAnswer
// accepts answers in any order within the issued set and conditions the
// tree, and Result reports the current top-K belief in every state.
// Checkpoint serializes the whole session (dataset, configuration,
// conditioned orderings, answer log, RNG position) into a versioned JSON
// envelope; RestoreSession verifies the schema version and dataset digest
// and resumes mid-query, in this process or another. A session driven to
// completion returns exactly what Process returns for the same
// configuration and answers: there is one query driver, and Process and the
// paper's experiments run it with a blocking Crowd callback.
//
// The crowdtopk CLI serves these sessions over HTTP (`crowdtopk serve`):
// POST /v1/sessions creates or restores, GET questions / POST answers /
// GET result / GET checkpoint / DELETE drive the lifecycle, GET /v1/sessions
// lists known sessions, and GET /v1/stats exposes store, persistence and
// π-cache counters. See the README for curl exchanges.
//
// # Service core, codecs and the SDK
//
// Everything between the wire and the session state machine lives in a
// transport-agnostic core, internal/service: typed requests and views for
// every operation, typed errors (ErrNotFound, ErrFull, ErrBadInput,
// BatchError with its partial-accept count, StorageError for durable-tier
// failures), the two-tier session store, the shared worker budget,
// reservation-based load shedding, TTL eviction and graceful close. The
// layers above it are deliberately thin:
//
//	          ┌──────────────────────────────┐
//	HTTP ───▶ │ internal/server (codec)      │──┐   decode → call → encode;
//	          │  JSON in/out, statusFor      │  │   the ONE error→HTTP map
//	          └──────────────────────────────┘  ▼
//	                                     ┌────────────────────┐     ┌──────────────────┐
//	                                     │ internal/service   │────▶│ internal/session │
//	                                     │  typed ops, store, │     │  + persist, par  │
//	Go   ───▶ ┌────────────────────┐     │  typed errors      │     └──────────────────┘
//	embedders │ crowdtopk/sdk      │──┘  └────────────────────┘
//	          │  same ops, no HTTP │
//	          └────────────────────┘
//
// internal/server only translates: decode the request, call the service,
// encode the view (whose json tags are the canonical wire shape) or map the
// typed error to a status — handlers hold no orchestration logic. The public
// crowdtopk/sdk package is the second front door: the same lifecycle —
// persistence, hydration, eviction, stats included — as direct Go calls with
// no net/http anywhere in its API. A parity suite drives the e2e scenarios
// (including kill-hot crash recovery) through both doors and requires
// identical outcomes, so the transports cannot drift.
//
// With `crowdtopk serve -data-dir`, sessions also survive server crashes:
// the in-memory table becomes a cache over a durable file store
// (internal/persist), and every accepted answer takes the persist path
// alongside the in-memory transition:
//
//	POST answers          dirty hook    ┌────────────────┐  append (+fsync)
//	──────▶ live session ──────────────▶│ async persister│─────────────────▶ <data-dir>/sessions/<id>/
//	         (session table)            └────────────────┘  every N answers:    ├─ snapshot.json
//	            ▲   │                                       compact WAL into    └─ wal.log (CRC-framed,
//	            │   │ idle TTL: persist, then release       a fresh snapshot       seq-numbered answers)
//	   lazy     │   ▼
//	 hydration  └── disk ── restore snapshot, replay WAL tail through SubmitAnswer
//	                        (torn tail dropped; corruption → typed error)
//
// On boot the server scans the store so every persisted session is
// immediately addressable; a killed server restarted on the same data dir
// finishes its queries with results identical to an uninterrupted run.
// Graceful shutdown (SIGINT/SIGTERM) drains in-flight requests, then
// flushes every dirty session to disk before exit, bounded by a shutdown
// deadline so a wedged disk cannot hang SIGTERM (sessions left dirty are
// logged by id).
//
// # Fault tolerance
//
// The durable tier assumes the disk will fail and degrades instead of
// stopping. It keeps acknowledging answers while writes fail, and those
// answers live only in memory until a write succeeds (an answer is durable
// once the persister has written it; see the README's Durability section).
// Failed writes retry with exponential backoff + jitter under a
// per-session budget; every outcome feeds a circuit breaker whose state
// decides how the process serves:
//
//	              ≥5 consecutive
//	              write failures            cooldown expires
//	┌────────┐ ──────────────────▶ ┌──────┐ ───────────────▶ ┌───────────┐
//	│ closed │                     │ open │                  │ half-open │
//	└────────┘ ◀────────────────── └──────┘ ◀─────────────── └───────────┘
//	   ▲  normal serving              │  DEGRADED MODE:         │ one probe
//	   │                              │  serve from live tier,  │ write
//	   └── probe succeeds             │  queue dirty sessions,  │
//	       (dirty queue drains,       │  refuse evictions,      │ probe fails:
//	        /ready 200 again)         │  /ready 503 + reason    ▼ reopen, cooldown ×2
//
// Sessions that exhaust their retry budget park on a slow cadence — still
// dirty, still queued, never dropped — and any successful write un-parks
// them all; recovery needs no operator action. A corrupt durable copy
// (digest or CRC failure on hydration or boot) is moved to
// <data-dir>/quarantine/<id>/ with a typed reason instead of failing
// startup or answering 500 forever: the session lists as "quarantined" and
// its API calls return 410 Gone. `crowdtopk fsck` checks a stopped
// server's data dir offline (and repairs torn WAL tails); the hidden
// `serve -fault-spec` flag drives the same deterministic fault injector
// the torture tests use (injected errors, torn writes, latency, wedge).
//
// # Numerical substrate
//
// All probabilities flow from the internal score-distribution kernel
// (internal/dist). Pairwise dominance probabilities P(X > Y) — the hottest
// computation in tree construction and question selection — are evaluated
// analytically whenever a closed form exists (uniform/uniform pairs,
// Gaussian/Gaussian pairs, point masses, disjoint supports) and by trapezoid
// quadrature over the left operand's support otherwise. Gaussian
// scores are truncated at ±4σ and renormalized so every score has bounded
// support, which keeps the shared evaluation grids finite.
//
// # Tree build
//
// tpo.Build evaluates every prefix probability as a trapezoid integral of
// f_t(x)·C(x)·Π_u F_u(x) over the shared grid, where C is the prefix's
// survival chain and u runs over the other remaining tuples. Every loop of
// the kernel does only work whose result is not already known exactly:
//   - A candidate's integrand is exactly zero below its first nonzero PDF
//     sample and below the largest first nonzero CDF sample among the
//     other remaining tuples, and above its last nonzero PDF sample and the
//     top of C, so it is evaluated only in between.
//   - The exclude-one CDF products leave out every tuple whose sampled CDF
//     is exactly 1 from the window's first point to the end of the grid,
//     since x·1 == x.
//   - A chain is stored only where it varies: below its window it is a
//     constant and above it zero, and its readers supply those values
//     themselves instead of reading filled-in arrays.
//
// All bounds are read off the sampled arrays, and adding an exact zero to a
// compensated sum or to a running trapezoid total changes no bit, so the
// tree equals the full-grid evaluation node for node and bit for bit
// (internal/tpo keeps that evaluation as a test oracle). Builders take
// their scratch rows from a pool per grid length, and Build its grid
// samples from a pool too, so a server building a tree per session does not
// turn them into garbage-collector work. A tree restored at full depth
// (tpo.FromLeafSet, which every session restore calls) samples nothing,
// since only Extend reads the samples.
//
// # Selection engine
//
// Question selection evaluates the expected residual uncertainty R_Q(T_K)
// for every candidate question. internal/selection runs that sweep on a
// flat, index-based engine: the leaf set is snapshotted once into an arena
// (paths flattened into one backing array, weights in one vector), a
// consistency index classifies every leaf against every candidate question
// in a single pass (packed byte rows plus per-class aggregates), and
// partition cells are index/weight views over the arena — splitting under a
// hypothetical answer copies indices, never paths. Pairwise probabilities
// are resolved once per sweep into a dense matrix, measures evaluate
// weight/path views in place without normalized copies
// (uncertainty.Measure's ValueView), and candidate questions fan across a
// configurable worker count with deterministic output. It is the only
// selection path: every tree leaf set has the rectangular shape the arena
// needs. The README's Performance section records the measured effect
// (≈4–11× on the residual sweeps, 40–70× fewer allocations, identical
// selected batches).
//
// # Concurrency model
//
// The hot paths are parallel and deterministic. Tree construction splits
// the TPO into disjoint subtree jobs executed by a worker pool (Query.
// Workers; 0 = all CPUs, 1 = sequential), each worker owning its scratch
// buffers; children are emitted in candidate order, so the resulting tree —
// child order, leaf order, every probability bit — is identical for every
// worker count. Pairwise dominance probabilities π_ij are memoized in a
// process-wide concurrency-safe cache (internal/pcache) keyed by
// distribution identity, so repeated selection sweeps and repeated trials
// over the same dataset do not re-integrate a pair. The cache holds a
// working set of two bounded generations, retiring the older one whole when
// the newer fills; served sessions parse their own distributions, so they
// never share entries, and its resets counter counts only explicit Reset
// calls. Experiment trials run concurrently with per-trial RNGs derived
// from the seed and aggregate in trial order, making their statistics
// independent of scheduling. Crowd questions are always asked one at a
// time, in order — parallelism never changes what the crowd sees.
//
// # Observability
//
// The serving stack (crowdtopk serve and the sdk package) is instrumented
// end to end through internal/obs, a dependency-free metrics core: atomic
// counters, gauges and fixed-bucket latency histograms collected in one
// process-wide registry and rendered in Prometheus text exposition format.
// The HTTP server exposes the scrape on GET /metrics alongside GET /health
// (liveness) and GET /ready (readiness: boot scan finished, session pool
// has capacity, durable writes succeeding, circuit breaker closed);
// embedders reach the same data
// via sdk.Client.Metrics and sdk.Client.Health. Every layer reports in:
// HTTP request latency by route, WAL append/fsync latency, snapshot and
// recovery durations, session lifecycle transitions, pool saturation, and
// the π-cache hit rate. Accepted answer batches can additionally be traced
// through an asynchronous NDJSON audit log (internal/obs.AuditLog) that
// never blocks the answer path — a wedged sink drops events and counts the
// drops instead. Admission control (per-client token-bucket rate limiting
// plus a global max-inflight cap) lives in the service core, so abusive
// clients shed with 429/Retry-After while everyone else keeps flowing. See
// the README's Operations section for flags and a scrape config.
//
// Latency is attributed per request by a dependency-free tracer (also in
// internal/obs): the HTTP codec opens a root span per request — joining an
// inbound W3C traceparent and echoing one back — and every layer beneath
// nests a child span, forming a tree whose self times (duration minus
// children) partition the root duration exactly:
//
//	http.request (root)                duration 12.0ms   self  0.4ms
//	└─ service.answers                 duration 11.6ms   self  0.7ms
//	   ├─ session.apply                duration  1.9ms   self  1.9ms
//	   └─ selection.plan               duration  9.0ms   self  9.0ms
//	                                            Σ self = 12.0ms = root
//
// Each span charges its self time to its component (the name's prefix:
// http, service, session, selection, persist), so "where did the
// milliseconds go" has one non-overlapping answer per trace, aggregated
// across requests as crowdtopk_span_self_seconds{component} histograms on
// /metrics. Deterministic head sampling by trace id (serve -trace-sample)
// bounds the cost; requests slower than -slow-ms are retained and logged
// with their breakdown regardless of the sampling verdict. Retained span
// trees are served from a bounded ring at GET /debug/traces, and the trace
// id links each trace to its access-log line and audit events. A rate-0
// tracer (the default for embedders) is fully inert: spans are nil and the
// hot paths pay nothing.
package crowdtopk
