package bloomlang

import (
	"bytes"
	"path/filepath"
	"reflect"
	"testing"
)

func TestSaveLoadProfiles(t *testing.T) {
	_, ps := fixtures(t)
	path := filepath.Join(t.TempDir(), "profiles.bin")
	if err := SaveProfiles(ps, path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadProfiles(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Config != ps.Config {
		t.Errorf("config did not travel with profiles: %+v vs %+v", back.Config, ps.Config)
	}
	if len(back.Profiles) != len(ps.Profiles) {
		t.Fatalf("loaded %d profiles, want %d", len(back.Profiles), len(ps.Profiles))
	}
	for i, p := range back.Profiles {
		orig := ps.Profiles[i]
		if p.Language != orig.Language || p.Size() != orig.Size() {
			t.Errorf("profile %d: %s/%d vs %s/%d", i, p.Language, p.Size(), orig.Language, orig.Size())
		}
	}
	// A classifier built from reloaded profiles classifies identically:
	// the Config seed is what fixes the hash matrices.
	a, err := NewDetector(ps, WithBackend(BackendBloom))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewDetector(back, WithBackend(BackendBloom))
	if err != nil {
		t.Fatal(err)
	}
	doc := fixCorpus.Test["fr"][0].Text
	ca, ma := a.DetectCounts(nil, doc)
	cb, mb := b.DetectCounts(nil, doc)
	if ma != mb || !reflect.DeepEqual(ca, cb) {
		t.Fatal("reloaded profiles classify differently")
	}
}

func TestWriteReadProfilesStream(t *testing.T) {
	_, ps := fixtures(t)
	var buf bytes.Buffer
	if _, err := WriteProfiles(&buf, ps); err != nil {
		t.Fatal(err)
	}
	back, err := ReadProfiles(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Config != ps.Config || len(back.Profiles) != len(ps.Profiles) {
		t.Errorf("stream round-trip mismatch: %+v", back.Config)
	}
}

func TestReadProfilesErrors(t *testing.T) {
	if _, err := ReadProfiles(bytes.NewReader(nil)); err == nil {
		t.Error("ReadProfiles of empty stream succeeded")
	}
	if _, err := ReadProfiles(bytes.NewReader([]byte("garbage data"))); err == nil {
		t.Error("ReadProfiles of garbage succeeded")
	}
	if _, err := LoadProfiles(filepath.Join(t.TempDir(), "missing.bin")); err == nil {
		t.Error("LoadProfiles of missing file succeeded")
	}
}

func TestDocumentStreamPublicAPI(t *testing.T) {
	corp, ps := fixtures(t)
	det, err := NewDetector(ps, WithBackend(BackendBloom))
	if err != nil {
		t.Fatal(err)
	}
	doc := corp.Test["sv"][0].Text
	s := det.NewStream()
	half := len(doc) / 2
	s.Write(doc[:half])
	s.Write(doc[half:])
	wantCounts, want := det.DetectCounts(nil, doc)
	if got := s.Match(); got != want {
		t.Errorf("streamed match %+v differs from one-shot %+v", got, want)
	}
	if got := s.AppendCounts(nil); !reflect.DeepEqual(got, wantCounts) {
		t.Errorf("streamed counts %v differ from one-shot %v", got, wantCounts)
	}
}

func TestTrainWidePublicAPI(t *testing.T) {
	cfg := DefaultConfig()
	cfg.N = 3
	cfg.TopT = 1000
	clf, err := TrainWide(cfg, map[string][]string{
		"el": {"το συμβούλιο θεσπίζει τα αναγκαία μέτρα για την εφαρμογή του κανονισμού"},
		"ru": {"совет принимает необходимые меры для применения настоящего регламента"},
	})
	if err != nil {
		t.Fatal(err)
	}
	r := clf.Classify("η επιτροπή και το συμβούλιο θεσπίζουν μέτρα")
	if got := r.BestLanguage(clf.Languages()); got != "el" {
		t.Errorf("Greek text classified as %q", got)
	}
}
