package session

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"crowdtopk/internal/dataset"
	"crowdtopk/internal/par"
	"crowdtopk/internal/pcache"
	"crowdtopk/internal/selection"
	"crowdtopk/internal/tpo"
)

// Schema is the session checkpoint envelope version. Bump on incompatible
// changes; Restore rejects other versions with a *MismatchError.
const Schema = 1

// envelopeKind tags session checkpoints so unrelated JSON (including bare
// leaf-set checkpoints) is rejected early.
const envelopeKind = "crowdtopk/session"

// maxRNGReplay bounds the checkpointed RNG position Restore is willing to
// replay. Only the random offline baselines draw from the session RNG — one
// shuffle over at most n(n-1)/2 candidate pairs — so any position a real
// session can reach is far below this ceiling (it allows n ≈ 23k, well past
// what TPO construction can hold). Without the bound a crafted checkpoint
// with rng_draws near 2^64 would pin a CPU inside burn for years.
const maxRNGReplay = 1 << 28

// MismatchError reports a checkpoint that cannot be restored: wrong schema
// version, wrong payload kind, or a dataset digest that does not match the
// dataset carried in the envelope. It is the same type the embedded
// leaf-set payload uses, so callers handle one error for both layers.
type MismatchError = tpo.MismatchError

// pairJSON is a question on the wire.
type pairJSON struct {
	I int `json:"i"`
	J int `json:"j"`
}

// answerJSON is an accepted answer on the wire.
type answerJSON struct {
	I   int  `json:"i"`
	J   int  `json:"j"`
	Yes bool `json:"yes"`
}

// configJSON is the session configuration on the wire (worker counts and
// pool wiring are runtime concerns and deliberately absent: the restoring
// process supplies its own).
type configJSON struct {
	K           int     `json:"k"`
	Budget      int     `json:"budget"`
	Algorithm   string  `json:"algorithm"`
	Measure     string  `json:"measure"`
	Reliability float64 `json:"reliability"`
	RoundSize   int     `json:"round_size"`
	Seed        int64   `json:"seed"`
	GridSize    int     `json:"grid_size,omitempty"`
	MaxLeaves   int     `json:"max_orderings,omitempty"`
	ProbEpsilon float64 `json:"prob_epsilon,omitempty"`
}

// envelope is the versioned on-disk form of a whole session: everything
// needed to resume mid-query in a fresh process — the dataset (with content
// digest), the configuration, the lifecycle position (state, answer log,
// pending questions, RNG position) and the conditioned leaf set in its own
// versioned sub-envelope.
type envelope struct {
	Schema         int                `json:"schema"`
	Kind           string             `json:"kind"`
	Dataset        []dataset.DistSpec `json:"dataset"`
	Digest         string             `json:"digest"`
	Names          []string           `json:"names,omitempty"`
	Config         configJSON         `json:"config"`
	State          State              `json:"state"`
	Asked          int                `json:"asked"`
	Contradictions int                `json:"contradictions"`
	RNGDraws       uint64             `json:"rng_draws"`
	Pending        []pairJSON         `json:"pending,omitempty"`
	Answers        []answerJSON       `json:"answers,omitempty"`
	Leaves         json.RawMessage    `json:"leaves"`
}

// Checkpoint serializes the full session state as a versioned JSON envelope.
// The stream is self-contained: Restore needs nothing but it (and optionally
// a worker pool for the new process).
func (s *Session) Checkpoint(w io.Writer) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.digest == "" {
		return errors.New("session: checkpoint: transient session")
	}
	specs, err := dataset.SpecsOf(s.cfg.Dists)
	if err != nil {
		return fmt.Errorf("session: checkpoint: %w", err)
	}
	var leaves bytes.Buffer
	if err := s.tree.LeafSet().WriteCheckpoint(&leaves, s.digest); err != nil {
		return fmt.Errorf("session: checkpoint: %w", err)
	}
	env := envelope{
		Schema:  Schema,
		Kind:    envelopeKind,
		Dataset: specs,
		Digest:  s.digest,
		Names:   s.cfg.Names,
		Config: configJSON{
			K:           s.cfg.K,
			Budget:      s.cfg.Budget,
			Algorithm:   s.cfg.Algorithm,
			Measure:     s.cfg.Measure,
			Reliability: s.cfg.Reliability,
			RoundSize:   s.cfg.RoundSize,
			Seed:        s.cfg.Seed,
			GridSize:    s.cfg.Build.GridSize,
			MaxLeaves:   s.cfg.Build.MaxLeaves,
			ProbEpsilon: s.cfg.Build.ProbEpsilon,
		},
		State:          s.state,
		Asked:          s.asked,
		Contradictions: s.contra,
		RNGDraws:       s.src.draws,
		Leaves:         json.RawMessage(leaves.Bytes()),
	}
	for _, q := range s.pending {
		env.Pending = append(env.Pending, pairJSON{I: q.I, J: q.J})
	}
	for _, a := range s.answers {
		env.Answers = append(env.Answers, answerJSON{I: a.Q.I, J: a.Q.J, Yes: a.Yes})
	}
	return json.NewEncoder(w).Encode(&env)
}

// EnvelopeInfo is the cheap header subset of a session checkpoint: the
// lifecycle position a storage layer needs to index a snapshot (which answer
// prefix it covers, whether the session is terminal) without restoring it.
type EnvelopeInfo struct {
	State State
	Asked int
}

// PeekCheckpoint decodes the envelope header from serialized checkpoint
// bytes, validating kind and schema exactly like Restore, without rebuilding
// the dataset or the tree. The persistence layer uses it to stamp snapshot
// metadata right after Checkpoint produced the bytes.
func PeekCheckpoint(data []byte) (EnvelopeInfo, error) {
	var head struct {
		Schema int    `json:"schema"`
		Kind   string `json:"kind"`
		State  State  `json:"state"`
		Asked  int    `json:"asked"`
	}
	if err := json.Unmarshal(data, &head); err != nil {
		return EnvelopeInfo{}, fmt.Errorf("%w: decoding: %v", ErrInvalidCheckpoint, err)
	}
	if head.Kind != envelopeKind {
		return EnvelopeInfo{}, &MismatchError{Field: "kind", Want: envelopeKind, Got: fmt.Sprintf("%q", head.Kind)}
	}
	if head.Schema != Schema {
		return EnvelopeInfo{}, &MismatchError{Field: "schema", Want: fmt.Sprint(Schema), Got: fmt.Sprint(head.Schema)}
	}
	if !head.State.valid() {
		return EnvelopeInfo{}, fmt.Errorf("%w: unknown state %q", ErrInvalidCheckpoint, head.State)
	}
	if head.Asked < 0 {
		return EnvelopeInfo{}, fmt.Errorf("%w: negative asked %d", ErrInvalidCheckpoint, head.Asked)
	}
	return EnvelopeInfo{State: head.State, Asked: head.Asked}, nil
}

// Restore rebuilds a session from a Checkpoint stream, in this process or
// any other: the dataset is reconstructed from its wire form and verified
// against the recorded content digest (and the leaf payload's own digest),
// the tree is rebuilt from the conditioned leaf set with the original leaf
// enumeration order, and the RNG is replayed to its recorded position. pool
// optionally attaches the restoring process's shared worker budget.
func Restore(r io.Reader, pool *par.Budget) (*Session, error) {
	var env envelope
	if err := json.NewDecoder(r).Decode(&env); err != nil {
		return nil, fmt.Errorf("%w: decoding: %v", ErrInvalidCheckpoint, err)
	}
	if env.Kind != envelopeKind {
		return nil, &MismatchError{Field: "kind", Want: envelopeKind, Got: fmt.Sprintf("%q", env.Kind)}
	}
	if env.Schema != Schema {
		return nil, &MismatchError{Field: "schema", Want: fmt.Sprint(Schema), Got: fmt.Sprint(env.Schema)}
	}
	dists, err := dataset.FromSpecs(env.Dataset)
	if err != nil {
		return nil, fmt.Errorf("%w: restoring dataset: %v", ErrInvalidConfig, err)
	}
	digest, err := dataset.Digest(dists)
	if err != nil {
		return nil, fmt.Errorf("%w: restoring dataset: %v", ErrInvalidConfig, err)
	}
	if env.Digest != digest {
		return nil, &MismatchError{Field: "dataset digest", Want: digest, Got: env.Digest}
	}
	if !env.State.valid() {
		return nil, fmt.Errorf("%w: unknown state %q", ErrInvalidCheckpoint, env.State)
	}
	if env.Asked != len(env.Answers) {
		return nil, fmt.Errorf("%w: asked=%d but %d answers", ErrInvalidCheckpoint, env.Asked, len(env.Answers))
	}
	if env.RNGDraws > maxRNGReplay {
		return nil, fmt.Errorf("%w: rng_draws %d exceeds replay bound %d", ErrInvalidCheckpoint, env.RNGDraws, uint64(maxRNGReplay))
	}

	cfg := Config{
		Dists:       dists,
		Names:       env.Names,
		K:           env.Config.K,
		Budget:      env.Config.Budget,
		Algorithm:   env.Config.Algorithm,
		Measure:     env.Config.Measure,
		Reliability: env.Config.Reliability,
		RoundSize:   env.Config.RoundSize,
		Seed:        env.Config.Seed,
		Build: tpo.BuildOptions{
			GridSize:    env.Config.GridSize,
			MaxLeaves:   env.Config.MaxLeaves,
			ProbEpsilon: env.Config.ProbEpsilon,
		},
		Pool: pool,
	}
	m, err := validate(&cfg)
	if err != nil {
		return nil, err
	}
	// plan never issues more questions than the remaining budget, so a
	// checkpoint that does is crafted — and would let a restored session
	// accept answers past Budget.
	if n := len(env.Pending); n > cfg.Budget-env.Asked {
		return nil, fmt.Errorf("%w: %d pending questions with budget %d and asked %d", ErrInvalidCheckpoint, n, cfg.Budget, env.Asked)
	}

	ls, err := tpo.ReadCheckpoint(bytes.NewReader(env.Leaves), digest)
	if err != nil {
		return nil, fmt.Errorf("session: restoring leaves: %w", err)
	}
	// As in New: fill the π cache up front (with whatever share of the pool
	// is free) so the restored session's first sweep runs hot.
	if pool != nil {
		got := pool.Acquire(cfg.Build.Workers)
		pcache.Prewarm(dists, got)
		pool.Release(got)
	} else {
		pcache.Prewarm(dists, cfg.Build.Workers)
	}
	tree, err := tpo.FromLeafSet(dists, cfg.K, ls, cfg.Build)
	if err != nil {
		return nil, fmt.Errorf("session: restoring tree: %w", err)
	}

	s := &Session{
		cfg:     cfg,
		measure: m,
		digest:  digest,
		tree:    tree,
		live:    selection.NewLiveEngine(),
		state:   env.State,
		asked:   env.Asked,
		contra:  env.Contradictions,
	}
	s.initRNG(env.RNGDraws)
	for _, p := range env.Pending {
		if p.I == p.J || p.I < 0 || p.J < 0 || p.I >= len(dists) || p.J >= len(dists) {
			return nil, fmt.Errorf("%w: invalid pending question (%d, %d)", ErrInvalidCheckpoint, p.I, p.J)
		}
		s.pending = append(s.pending, tpo.NewQuestion(p.I, p.J))
	}
	for _, a := range env.Answers {
		if a.I == a.J || a.I < 0 || a.J < 0 || a.I >= len(dists) || a.J >= len(dists) {
			return nil, fmt.Errorf("%w: invalid answer (%d, %d)", ErrInvalidCheckpoint, a.I, a.J)
		}
		yes := a.Yes
		if a.I > a.J {
			// NewQuestion swaps the pair into canonical I < J order; the
			// answer flips with it, mirroring SubmitAnswer (Checkpoint
			// always writes canonical pairs, but a hand-edited envelope
			// must not restore with inverted semantics).
			yes = !yes
		}
		s.answers = append(s.answers, tpo.Answer{Q: tpo.NewQuestion(a.I, a.J), Yes: yes})
	}
	// A non-terminal session always has questions planned; a checkpoint
	// written between rounds (or hand-trimmed) may not — replan.
	if !s.state.Terminal() && len(s.pending) == 0 {
		if err := s.plan(context.Background()); err != nil {
			return nil, err
		}
	}
	return s, nil
}
