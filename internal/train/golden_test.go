package train_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"bloomlang/internal/core"
	"bloomlang/internal/corpus"
	"bloomlang/internal/train"
)

// goldenProfiles pins the serialized profiles of perfbench's training
// split (perfbenchTexts) at n = 2 to 6: the sha256 of ProfileSet.WriteTo,
// recorded once and never regenerated, so a change to counting,
// ranking or the codec that alters a single byte fails here, even one
// that changes every training path alike.
var goldenProfiles = []struct {
	cfg    core.Config
	sha256 string
}{
	{core.Config{N: 2, TopT: 100}, "e8b7417a6cf55a5a759d7469298f4e9c4d390dc904d3c9abd5c270bc62a9813f"},
	{core.Config{N: 3}, "4974a7792d0e7aa9518d475e2fcd48851ae8d8a0feb049c7e411364dbb158a3e"},
	{core.Config{N: 4}, "c4d7b4b8867ff4f80336ce41436f24837dec38af7f860f10dde58fd1a4ed5380"},
	{core.Config{N: 4, TopT: 300}, "f31bc2d1e486fabe62925d95d826edf38a7a186b66fb77eb235541fc717a0dea"},
	{core.Config{N: 5}, "04e718f355ae135e287759d97775b4f9c4061a31032e31891ee0ca45bebbbd28"},
	{core.Config{N: 6, TopT: 2000}, "fdbd89d5ba79321e3f13cda879952cc96347a693e5c8277881260761bc742943"},
}

func TestProfilesGolden(t *testing.T) {
	texts, _ := perfbenchTexts(t)
	for _, g := range goldenProfiles {
		t.Run(fmt.Sprintf("n=%d,t=%d", g.cfg.N, g.cfg.WithDefaults().TopT), func(t *testing.T) {
			tr, err := train.New(g.cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, lang := range corpus.Languages() {
				for _, doc := range texts[lang] {
					if err := tr.Add(lang, doc); err != nil {
						t.Fatal(err)
					}
				}
			}
			streamed, _, err := tr.Finalize()
			if err != nil {
				t.Fatal(err)
			}
			batch, _, err := train.Texts(g.cfg, texts)
			if err != nil {
				t.Fatal(err)
			}
			for name, ps := range map[string]*core.ProfileSet{"Trainer": streamed, "train.Texts": batch} {
				sum := sha256.Sum256(serialize(t, ps))
				if got := hex.EncodeToString(sum[:]); got != g.sha256 {
					t.Errorf("%s: profiles hash to %s, want %s", name, got, g.sha256)
				}
			}
		})
	}
}
