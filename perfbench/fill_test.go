package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"crowdtopk/internal/persist"
	"crowdtopk/internal/session"
)

// The restart fill must leave every session as a snapshot taken at create
// plus a WAL of exactly fillAnswers records, and nothing else.
func TestFillLeavesSnapshotAndThreeRecordWAL(t *testing.T) {
	w, err := workloadByName("restart")
	if err != nil {
		t.Fatal(err)
	}
	w.fill = 6
	work := t.TempDir()
	dir, m, err := ensureFill(w, work)
	if err != nil {
		t.Fatal(err)
	}
	code, err := codeHash()
	if err != nil || m.Code != code || filepath.Base(dir) != "restart-fill-"+code {
		t.Errorf("fill at %s made by %q, want it keyed by this binary's hash %q (%v)", dir, m.Code, code, err)
	}
	root := filepath.Join(fillDataDir(dir), "sessions")
	dirs, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) != w.fill || len(m.Sessions) != w.fill {
		t.Fatalf("%d session dirs and %d manifest entries, want %d", len(dirs), len(m.Sessions), w.fill)
	}
	store, err := persist.NewFile(persist.FileOptions{Dir: fillDataDir(dir)})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	for _, fs := range m.Sessions {
		files, err := os.ReadDir(filepath.Join(root, fs.ID))
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, f := range files {
			names = append(names, f.Name())
		}
		if !reflect.DeepEqual(names, []string{"snapshot.json", "wal.log"}) {
			t.Errorf("session %s holds %v, want a snapshot and a WAL", fs.ID, names)
		}
		snap, err := os.ReadFile(filepath.Join(root, fs.ID, "snapshot.json"))
		if err != nil {
			t.Fatal(err)
		}
		info, err := session.PeekCheckpoint(snap)
		if err != nil || info.Asked != 0 {
			t.Errorf("session %s snapshot: asked %d, %v; want the create-time snapshot", fs.ID, info.Asked, err)
		}
		before := store.Counters().Replays
		s, err := store.Get(fs.ID)
		if err != nil {
			t.Fatalf("recovering %s: %v", fs.ID, err)
		}
		if replayed := store.Counters().Replays - before; replayed != fillAnswers {
			t.Errorf("session %s replayed %d WAL records, want %d", fs.ID, replayed, fillAnswers)
		}
		if st := s.Status(); st.Asked != fillAnswers || st.State.Terminal() || len(fs.Answers) != fillAnswers {
			t.Errorf("session %s recovered %+v with %d manifest answers, want mid-query after %d", fs.ID, st, len(fs.Answers), fillAnswers)
		}
	}
	againDir, again, err := ensureFill(w, work)
	if err != nil || againDir != dir || !reflect.DeepEqual(again, m) {
		t.Errorf("second ensureFill did not reuse the fill: %v", err)
	}
	// A fill whose manifest names other code is made again.
	stale := *m
	stale.Code = "0000000000000000"
	data, err := json.Marshal(&stale)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "manifest.json"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, remade, err := ensureFill(w, work); err != nil || remade.Code != code {
		t.Errorf("ensureFill kept a fill made by other code: %v", err)
	}
}
