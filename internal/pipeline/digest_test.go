package pipeline

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/mpeg"
	"repro/internal/video"
)

// recordsDigest hashes every field of every frame record. %+v prints
// float64 in its shortest round-trip form, so two digests agree only
// when the records are bit-identical.
func recordsDigest(res *Result) string {
	h := sha256.New()
	for _, rec := range res.Records {
		fmt.Fprintf(h, "%+v\n", rec)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestControlledEncodeDigests pins the complete per-frame outcome of a
// short fixed-seed controlled clip: every decision, elapsed time, miss
// and mean level feeds a FrameRecord, so a refactor of the decision
// loop or the executor that changes any of them changes a digest. The
// period sits at the q4 average load with K = 2, which keeps the
// controller between levels and the frame budgets varying, so each
// configuration below produces records of its own:
//
//   - iterative: the default iterative tables;
//   - per-mb-quantum: per-macroblock deadlines under a budget quantum,
//     which re-targets through Controller.Retarget and the program
//     cache with cloned deadline families every frame;
//   - soft: soft mode, whose misses are counted;
//   - learning: online average-time learning, fed by the session's
//     observer from the executor's completion times.
func TestControlledEncodeDigests(t *testing.T) {
	vcfg := video.DefaultConfig()
	vcfg.Frames = 60
	vcfg.Macroblocks = 40
	vcfg.Period = core.Cycles(vcfg.Macroblocks) * mpeg.MacroblockAv(4)
	src, err := video.NewSource(vcfg)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		opts    []mpeg.ControlledOption
		quantum core.Cycles
		want    string
	}{
		{"iterative", nil, 0, "e38ee33b86d6a5e47b12b309aa430fe02ada034eee8821045b7eddfb1c952667"},
		{"per-mb-quantum", []mpeg.ControlledOption{mpeg.WithPerMacroblockDeadlines()}, vcfg.Period / 16, "f5d7087fa3e715bf0423fda65ac7f97ff1a0abb844be602d99cf19ae1c4e89a2"},
		{"soft", []mpeg.ControlledOption{mpeg.WithControllerOptions(core.WithMode(core.Soft))}, 0, "781e31c08d2bfecca9c662da38da69e6d461afcdb0d87d3eab586c07961ae219"},
		{"learning", []mpeg.ControlledOption{mpeg.WithLearning(0.2)}, 0, "a39bc11a668ce9aed6abcf7d29308e8015569c3636d02a819966eea58d96bcbb"},
	}
	seen := map[string]string{}
	for _, tc := range cases {
		res, err := Run(Config{Source: src, K: 2, Controlled: true, Seed: 5,
			ControlledOpts: tc.opts, BudgetQuantum: tc.quantum})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got := recordsDigest(res)
		if got != tc.want {
			t.Errorf("%s: records digest %s, want %s", tc.name, got, tc.want)
		}
		if prev, dup := seen[got]; dup {
			t.Errorf("%s: records identical to %s; the configuration pins nothing of its own", tc.name, prev)
		}
		seen[got] = tc.name
	}
}
