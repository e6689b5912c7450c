package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"crowdtopk/internal/crowd"
	"crowdtopk/internal/dataset"
	"crowdtopk/internal/par"
	"crowdtopk/internal/persist"
	"crowdtopk/internal/session"
)

// The restart fill: durable-shaped sessions, each left
// mid-query with a snapshot taken at create and a WAL of fillAnswers acked
// answers. It depends on no run seed but on the code that writes it, so it
// is kept under the hash of the benchmark binary, which links the
// checkout's session, persist and dataset packages: each build of that code
// makes its own fill once, and every restart run drains a fresh copy.
const (
	fillSeed    = 20160516
	fillAnswers = 3
	fillWorkers = 4
)

type fillSession struct {
	ID      string             `json:"id"`
	Specs   []dataset.DistSpec `json:"specs"`
	Scores  []float64          `json:"scores"`
	Answers []wireAnswer       `json:"answers"`
}

type fillManifest struct {
	Code     string        `json:"code"` // codeHash of the binary that made the fill
	Sessions []fillSession `json:"sessions"`
}

// fillDataDir is where the filled serve data dir sits inside a fill
// directory.
func fillDataDir(dir string) string { return filepath.Join(dir, "data") }

// codeHash is the first 16 hex digits of the SHA-256 of the running
// executable.
func codeHash() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// ensureFill returns the directory and manifest of the restart fill of w
// that this binary makes, under work, making the fill first unless a
// complete one of this code and size is there. A half-made fill never has a
// manifest, so it is remade.
func ensureFill(w workload, work string) (string, *fillManifest, error) {
	code, err := codeHash()
	if err != nil {
		return "", nil, fmt.Errorf("restart fill: %w", err)
	}
	dir := filepath.Join(work, "restart-fill-"+code)
	manifest := filepath.Join(dir, "manifest.json")
	if data, err := os.ReadFile(manifest); err == nil {
		var m fillManifest
		if err := json.Unmarshal(data, &m); err == nil && m.Code == code && len(m.Sessions) == w.fill {
			return dir, &m, nil
		}
	}
	if err := os.RemoveAll(dir); err != nil {
		return "", nil, err
	}
	start := time.Now()
	m, err := makeFill(w, fillDataDir(dir))
	if err != nil {
		return "", nil, fmt.Errorf("restart fill: %w", err)
	}
	fmt.Fprintf(os.Stderr, "perfbench: restart fill of %d sessions made in %.1fs\n", w.fill, time.Since(start).Seconds())
	m.Code = code
	data, err := json.Marshal(m)
	if err != nil {
		return "", nil, err
	}
	tmp := manifest + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return "", nil, err
	}
	return dir, m, os.Rename(tmp, manifest)
}

// makeFill creates w.fill sessions with the session package and stores
// them in a persist.File data dir, as the service would: a snapshot written
// at create, then one WAL append carrying fillAnswers acked answers. A
// candidate dataset whose session finishes within fillAnswers answers is
// dropped, since it could not be left mid-query. The fill syncs once, when
// the store closes: the bytes on disk are those -fsync always writes.
func makeFill(w workload, dataDir string) (*fillManifest, error) {
	count := w.fill
	store, err := persist.NewFile(persist.FileOptions{Dir: dataDir, Sync: persist.SyncNone})
	if err != nil {
		return nil, err
	}
	pool := par.NewBudget(0)
	var mu sync.Mutex
	var firstErr error
	slots := make([]*fillSession, count)
	var next int
	var wg sync.WaitGroup
	for c := 0; c < fillWorkers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				slot := next
				next++
				mu.Unlock()
				if slot >= count {
					return
				}
				// Candidates of slot are streams slot, slot+count, ... so the
				// fill does not depend on how workers interleave.
				for cand := slot; ; cand += count {
					fs, err := fillOne(store, pool, w, cand)
					if err != nil {
						mu.Lock()
						firstErr = errors.Join(firstErr, err)
						mu.Unlock()
						return
					}
					if fs != nil {
						slots[slot] = fs
						break
					}
				}
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(firstErr, store.Close()); err != nil {
		return nil, err
	}
	m := &fillManifest{Sessions: make([]fillSession, count)}
	for i, fs := range slots {
		m.Sessions[i] = *fs
	}
	return m, nil
}

// fillOne stores candidate cand mid-query, or returns nil when its session
// ended within fillAnswers answers.
func fillOne(store *persist.File, pool *par.Budget, w workload, cand int) (*fillSession, error) {
	ds, err := w.generate(mix(fillSeed, int64(cand)))
	if err != nil {
		return nil, err
	}
	specs, err := dataset.SpecsOf(ds)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(mix(fillSeed, -int64(cand)-1)))
	in := &sessionInput{truth: crowd.SampleTruth(ds, rng), rng: rng}
	dists, err := dataset.FromSpecs(specs)
	if err != nil {
		return nil, err
	}
	s, err := session.New(session.Config{Dists: dists, K: w.k, Budget: budget,
		Algorithm: algorithm, Measure: measure, Pool: pool})
	if err != nil {
		return nil, err
	}
	fs := &fillSession{ID: fmt.Sprintf("s_%016x%016x", uint64(mix(fillSeed, int64(cand)+1<<40)), uint64(mix(fillSeed, int64(cand)+2<<40))),
		Specs: specs, Scores: in.truth.Scores}
	for len(fs.Answers) < fillAnswers {
		qs, st, err := s.NextQuestions(0)
		if err != nil {
			return nil, err
		}
		if st.State.Terminal() {
			break
		}
		if len(fs.Answers) == 0 {
			if err := store.Put(fs.ID, s); err != nil {
				return nil, err
			}
		}
		a := in.answer(qs[0])
		if err := s.SubmitAnswer(a); err != nil {
			return nil, err
		}
		fs.Answers = append(fs.Answers, wireAnswer{I: a.Q.I, J: a.Q.J, Yes: a.Yes})
	}
	if s.State().Terminal() {
		if len(fs.Answers) == 0 {
			return nil, nil // never stored
		}
		return nil, store.Delete(fs.ID)
	}
	return fs, store.Put(fs.ID, s)
}

// copyTree copies the directories and regular files under src to dst,
// hard-linking session snapshots: the server replaces a snapshot by renaming
// a new file over it and never writes one in place, so the fill's copy stays
// intact. The WALs it appends to are copied.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		switch {
		case d.IsDir():
			return os.MkdirAll(target, 0o755)
		case d.Name() == "snapshot.json":
			return os.Link(path, target)
		}
		return copyFile(path, target)
	})
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
