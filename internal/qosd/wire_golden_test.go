package qosd

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"repro/internal/platform"
	"repro/internal/qosd/api"
)

// goldenDecideDigests are the SHA-256 digests of the eight /v1/decide
// response bodies of TestQosdWireGolden, byte for byte as served. They
// pin both the wire format (key order, number formatting, omitted
// fields) and the decisions themselves (levels, elapsed, mean level);
// any change to either shows up here.
var goldenDecideDigests = [8]string{
	"ac2f178dacc42dd1f169c597b02d7356479ad28fa2a9441b3ec220d20856d4c7",
	"09649ac867bc457d0079c698a40d8d753d070ca073ab49f846dd6f782bff816a",
	"e26682f17b0d78ef76eb79a6b5afc8b5571bc8a68d25ae4796a46984eb3361db",
	"108169896bf76394f255d0f449f23e6f1df587e8dd96780067aaa71e7b560f8b",
	"56946560ae1b124d442ee7efcf32f32dae0e703e1abf27475a7024c58a22cc6c",
	"49db11ee6f4d6fa61bea0b3ba62dfb3e8a5dcacec8f31b465b3204e7b93290e0",
	"4883d854d527cd669167fc7de36a5c4ae8e9e3d6427a38ffe82fc723c103b2d2",
	"472d34278d4f6ed32dcb799bc005dcea39b68717cf477543c90f9f7f59286f9b",
}

// TestQosdWireGolden runs a fixed decide exchange against the MPEG
// body model: 36 admitted streams, 8 batches of seeded Loads, one item
// with explicit costs and one for an unknown stream, and checks every
// response body against its pinned digest.
func TestQosdWireGolden(t *testing.T) {
	const streams, batches = 36, 8
	mf := ModelFile{Name: "mpeg_body", Path: filepath.Join("..", "..", "examples", "models", "mpeg_body.qos")}
	probe, err := loadModel(mf, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// A quarter of the way from MinNeed to FullNeed per stream: every
	// stream admits, and the shares bind the controller's choices.
	spec := probe.spec
	per := spec.MinNeed + (spec.FullNeed-spec.MinNeed)/4
	d, err := New(Config{Models: []ModelFile{mf}, Budget: per.MulSat(streams)})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(d.Handler())
	t.Cleanup(func() {
		srv.Close()
		d.Drain()
	})
	infos := admitN(t, srv, streams)
	actions := infos[0].Actions

	rng := platform.NewRNG(20051)
	for b := 0; b < batches; b++ {
		req := api.DecideRequest{Items: make([]api.DecideItem, streams)}
		for k, s := range infos {
			req.Items[k] = api.DecideItem{Stream: s.ID, Load: rng.Float64()}
		}
		switch b {
		case 3:
			costs := make([]int64, actions)
			for a := range costs {
				costs[a] = int64(rng.Intn(200_000))
			}
			req.Items[5] = api.DecideItem{Stream: infos[5].ID, Costs: costs}
		case 6:
			req.Items = append(req.Items, api.DecideItem{Stream: 1 << 40, Load: 0.5})
		}
		reqBody, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(srv.URL+"/v1/decide", "application/json", bytes.NewReader(reqBody))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("batch %d: HTTP %d: %s", b, resp.StatusCode, body)
		}
		sum := sha256.Sum256(body)
		if got := hex.EncodeToString(sum[:]); got != goldenDecideDigests[b] {
			t.Errorf("batch %d: response digest %s, want %s\nbody: %.400s", b, got, goldenDecideDigests[b], body)
		}
	}
}
