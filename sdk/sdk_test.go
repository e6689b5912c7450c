package sdk_test

import (
	"bytes"
	"errors"
	"fmt"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	crowdtopk "crowdtopk"
	"crowdtopk/internal/session"
	"crowdtopk/sdk"
)

func testDataset(t *testing.T) *crowdtopk.Dataset {
	t.Helper()
	ds, err := crowdtopk.NewDataset([]crowdtopk.Uncertain{
		crowdtopk.UniformScore(1.0, 1.6),
		crowdtopk.UniformScore(1.4, 1.6),
		crowdtopk.UniformScore(1.8, 1.6),
		crowdtopk.UniformScore(2.2, 1.6),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.SetNames([]string{"a", "b", "c", "d"}); err != nil {
		t.Fatal(err)
	}
	return ds
}

// TestLifecycle drives the full in-memory lifecycle through the public
// surface: create, questions, answers, result, checkpoint/restore, list,
// stats, delete.
func TestLifecycle(t *testing.T) {
	client, err := sdk.New(sdk.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	ds := testDataset(t)

	info, err := client.CreateSession(sdk.SessionConfig{
		Dataset: ds,
		Query:   crowdtopk.Query{K: 2, Budget: 6, Seed: 11},
	})
	if err != nil {
		t.Fatal(err)
	}
	if info.Tuples != 4 || info.Budget != 6 || info.ID == "" {
		t.Fatalf("create info %+v", info)
	}

	qs, err := client.Questions(info.ID, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(qs.Questions) != 1 {
		t.Fatalf("n=1 returned %d questions", len(qs.Questions))
	}
	q := qs.Questions[0]
	if !strings.Contains(q.Prompt, "rank above") {
		t.Fatalf("prompt %q not rendered through names", q.Prompt)
	}

	ack, err := client.SubmitAnswers(info.ID, crowdtopk.Answer{Q: crowdtopk.Question{I: q.I, J: q.J}, Yes: true})
	if err != nil {
		t.Fatal(err)
	}
	if ack.Accepted != 1 || ack.Asked != 1 {
		t.Fatalf("ack %+v", ack)
	}

	res, err := client.Result(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Ranking) != 2 || len(res.Names) != 2 {
		t.Fatalf("result %+v", res)
	}

	var cp bytes.Buffer
	if err := client.Checkpoint(info.ID, &cp); err != nil {
		t.Fatal(err)
	}
	restored, err := client.RestoreSession(cp.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if restored.ID == info.ID || restored.Asked != 1 {
		t.Fatalf("restored %+v", restored)
	}

	list := client.List(0)
	if list.Total != 2 || len(list.Sessions) != 2 {
		t.Fatalf("list %+v", list)
	}
	if st := client.Stats(); st.Sessions != 2 || st.Store.Backend != "memory" {
		t.Fatalf("stats %+v", st)
	}

	for _, id := range []string{info.ID, restored.ID} {
		if err := client.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	if err := client.Delete(info.ID); !errors.Is(err, sdk.ErrNotFound) {
		t.Fatalf("double delete: %v, want ErrNotFound", err)
	}
}

// TestConcurrentLifecycles backs the Client's "safe for concurrent use"
// guarantee: goroutines sharing one Client each drive a whole session, from
// create to delete, against a simulated crowd, in memory and with durable
// storage.
func TestConcurrentLifecycles(t *testing.T) {
	for _, durable := range []bool{false, true} {
		name := "memory"
		opts := sdk.Options{}
		if durable {
			name = "storage"
			opts.Storage = &sdk.Storage{Dir: t.TempDir()}
		}
		t.Run(name, func(t *testing.T) {
			client, err := sdk.New(opts)
			if err != nil {
				t.Fatal(err)
			}
			ds := testDataset(t)
			const sessions = 8
			var wg sync.WaitGroup
			for g := 0; g < sessions; g++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					if err := driveSession(client, ds, seed); err != nil {
						t.Errorf("session seed %d: %v", seed, err)
					}
				}(int64(g + 1))
			}
			wg.Wait()
			if n := client.SessionCount(); n != 0 {
				t.Errorf("%d sessions left after every lifecycle deleted its own", n)
			}
			client.Close()
		})
	}
}

// driveSession runs one session's lifecycle on client: create, answer every
// question from a simulated crowd until the session is terminal, read the
// result, checkpoint, delete.
func driveSession(client *sdk.Client, ds *crowdtopk.Dataset, seed int64) error {
	crowd, _, err := crowdtopk.SimulatedCrowd(ds, 0.9, 1, seed)
	if err != nil {
		return err
	}
	const budget = 8
	info, err := client.CreateSession(sdk.SessionConfig{
		Dataset:     ds,
		Query:       crowdtopk.Query{K: 2, Budget: budget, Seed: seed},
		Reliability: crowd.Reliability(),
	})
	if err != nil {
		return fmt.Errorf("create: %w", err)
	}
	for round := 0; ; round++ {
		qs, err := client.Questions(info.ID, 0)
		if err != nil {
			return fmt.Errorf("questions: %w", err)
		}
		if len(qs.Questions) == 0 {
			break
		}
		if round == budget {
			return fmt.Errorf("still asking after %d rounds with budget %d", round, budget)
		}
		answers := make([]crowdtopk.Answer, len(qs.Questions))
		for i, q := range qs.Questions {
			answers[i] = crowd.Ask(crowdtopk.Question{I: q.I, J: q.J})
		}
		if _, err := client.SubmitAnswers(info.ID, answers...); err != nil {
			return fmt.Errorf("answers: %w", err)
		}
	}
	res, err := client.Result(info.ID)
	if err != nil {
		return fmt.Errorf("result: %w", err)
	}
	if !res.State.Terminal() || res.Asked == 0 || len(res.Ranking) != 2 {
		return fmt.Errorf("result state %q after %d answers, ranking %v; want a terminal top-2 that asked the crowd", res.State, res.Asked, res.Ranking)
	}
	var cp bytes.Buffer
	if err := client.Checkpoint(info.ID, &cp); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	if cp.Len() == 0 {
		return fmt.Errorf("empty checkpoint")
	}
	if err := client.Delete(info.ID); err != nil {
		return fmt.Errorf("delete: %w", err)
	}
	return nil
}

// TestTypedErrors pins the public failure taxonomy: ErrNotFound, ErrFull,
// and BatchError exposing the partial-accept count with an errors.Is-able
// cause.
func TestTypedErrors(t *testing.T) {
	client, err := sdk.New(sdk.Options{MaxSessions: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	ds := testDataset(t)

	if _, err := client.Result("s_nope"); !errors.Is(err, sdk.ErrNotFound) {
		t.Fatalf("unknown id: %v, want ErrNotFound", err)
	}

	// Managed sessions must checkpoint, so a dataset without a wire form
	// (conditioning truncates Gaussian scores) is a configuration error.
	gs, err := crowdtopk.NewDataset([]crowdtopk.Uncertain{
		crowdtopk.GaussianScore(1.0, 0.5), crowdtopk.GaussianScore(1.3, 0.5), crowdtopk.GaussianScore(1.6, 0.5),
	})
	if err != nil {
		t.Fatal(err)
	}
	cond, err := gs.Conditioned(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.CreateSession(sdk.SessionConfig{Dataset: cond, Query: crowdtopk.Query{K: 2, Budget: 2}}); !errors.Is(err, session.ErrInvalidConfig) {
		t.Fatalf("dataset without wire form: %v, want ErrInvalidConfig", err)
	}

	cfg := sdk.SessionConfig{Dataset: ds, Query: crowdtopk.Query{K: 2, Budget: 6}}
	info, err := client.CreateSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.CreateSession(cfg); !errors.Is(err, sdk.ErrFull) {
		t.Fatalf("over-cap create: %v, want ErrFull", err)
	}

	// A batch that fails on its second answer keeps the first: the error
	// carries the accepted count and unwraps to its cause.
	qs, err := client.Questions(info.ID, 1)
	if err != nil {
		t.Fatal(err)
	}
	q := qs.Questions[0]
	_, err = client.SubmitAnswers(info.ID,
		crowdtopk.Answer{Q: crowdtopk.Question{I: q.I, J: q.J}, Yes: true},
		crowdtopk.Answer{Q: crowdtopk.Question{I: 0, J: 0}, Yes: true},
	)
	var batch *sdk.BatchError
	if !errors.As(err, &batch) {
		t.Fatalf("self-comparison: %v, want *sdk.BatchError", err)
	}
	if batch.Accepted != 1 {
		t.Fatalf("accepted = %d, want 1", batch.Accepted)
	}
	if res, err := client.Result(info.ID); err != nil || res.Asked != 1 {
		t.Fatalf("first answer lost: asked=%d err=%v", res.Asked, err)
	}

	if _, err := client.CreateSession(sdk.SessionConfig{Query: crowdtopk.Query{K: 1, Budget: 1}}); err == nil {
		t.Fatal("nil dataset accepted")
	}
	if _, err := client.RestoreSession(nil); err == nil {
		t.Fatal("empty checkpoint accepted")
	}
}

// TestNoNetHTTPInAPI enforces the layering contract mechanically: the sdk
// package must not import net/http (directly — transitive purity is implied
// by internal/service's own import set, which go vet's import graph keeps
// honest). Embedders get the serving stack without pulling in a server.
func TestNoNetHTTPInAPI(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		f, err := parser.ParseFile(fset, name, src, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			if strings.Contains(imp.Path.Value, "net/http") {
				t.Errorf("%s imports %s", name, imp.Path.Value)
			}
		}
	}
}

// TestMetricsAndHealth pins the embedded observability surface: Metrics()
// returns a well-formed Prometheus exposition reflecting this client's
// sessions, and Health() reports readiness with reasons when unready.
func TestMetricsAndHealth(t *testing.T) {
	client, err := sdk.New(sdk.Options{MaxSessions: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	if h := client.Health(); !h.Ready || !h.BootScanDone || len(h.Reasons) != 0 {
		t.Fatalf("fresh client not ready: %+v", h)
	}
	if _, err := client.CreateSession(sdk.SessionConfig{
		Dataset: testDataset(t), Query: crowdtopk.Query{K: 2, Budget: 4},
	}); err != nil {
		t.Fatal(err)
	}
	if h := client.Health(); h.Ready || !h.PoolSaturated || len(h.Reasons) == 0 {
		t.Fatalf("saturated client still ready: %+v", h)
	}

	raw, err := client.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, want := range []string{
		"# TYPE crowdtopk_sessions_live gauge",
		"crowdtopk_sessions_live 1",
		"crowdtopk_pool_saturation",
		"crowdtopk_pcache_hit_rate",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("Metrics() missing %q", want)
		}
	}
}
