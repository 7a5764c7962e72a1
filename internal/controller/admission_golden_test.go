package controller

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"github.com/in-net/innet/internal/journal"
	"github.com/in-net/innet/internal/packet"
	"github.com/in-net/innet/internal/security"
)

// TestAdmissionGolden is a behaviour oracle for admission. For 24 seeds
// of 40 mutationScript ops it renders every journal record the
// controller appends and the admission cache's hit and miss counts
// after each op, then the script's own transcript. Between script ops a second seeded stream deploys and
// kills modules of two more tenants: eve reuses the name "mirror" (so
// admission meets a module-ID clash with bob's), and carol deploys the
// same config as "mirror2" (so a clashing request can find its
// placement key already cached). The result must equal
// testdata/admission.golden byte for byte.
//
// The golden file pins behaviour, not an implementation: an
// optimisation of the admission path must reproduce it unchanged,
// counter for counter. Only an intended behaviour change regenerates
// it, by writing renderAdmission's output to the file.
func TestAdmissionGolden(t *testing.T) {
	got := renderAdmission(t)
	want, err := os.ReadFile("testdata/admission.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			t.Fatalf("admission transcript differs at line %d:\n got: %s\nwant: %s", i+1, g[i], w[i])
		}
	}
	t.Fatalf("admission transcript has %d lines, golden has %d", len(g), len(w))
}

// recordingJournal keeps every record the controller appends.
type recordingJournal struct{ recs []journal.Record }

func (j *recordingJournal) Append(r journal.Record) error {
	j.recs = append(j.recs, r)
	return nil
}

// renderAdmission renders every seed.
func renderAdmission(t *testing.T) string {
	var b strings.Builder
	for seed := uint64(1); seed <= 24; seed++ {
		fmt.Fprintf(&b, "# seed %d\n", seed)
		runAdmission(t, &b, seed)
	}
	return b.String()
}

// runAdmission drives one seeded scenario and appends its transcript.
func runAdmission(t *testing.T, w *strings.Builder, seed uint64) {
	c := newDifferentialController(t, 0)
	j := &recordingJournal{}
	c.AttachJournal(j)
	rng := rand.New(rand.NewSource(int64(seed) ^ 0x5eed))
	others := []Request{
		{Tenant: "eve", ModuleName: "mirror", Trust: security.ThirdParty, Config: webMirrorConfig},
		{Tenant: "carol", ModuleName: "mirror2", Trust: security.ThirdParty, Config: webMirrorConfig},
	}
	seen := 0
	after := func(op int) {
		switch r := rng.Intn(6); {
		case r < 2:
			req := others[r]
			dep, err := c.Deploy(req)
			if err != nil {
				fmt.Fprintf(w, "%d+ deploy %s/%s: err %v\n", op, req.Tenant, req.ModuleName, err)
				break
			}
			fmt.Fprintf(w, "%d+ deploy %s/%s: ok platform=%s addr=%s\n",
				op, req.Tenant, req.ModuleName, dep.Platform, packet.IPString(dep.Addr))
		case r < 4:
			req := others[r-2]
			for _, d := range c.Deployments() {
				if d.Tenant == req.Tenant {
					fmt.Fprintf(w, "%d+ kill %s/%s: %v\n", op, req.Tenant, req.ModuleName, c.Kill(d.ID))
				}
			}
		}
		for _, r := range j.recs[seen:] {
			fmt.Fprintf(w, "%d rec %s\n", op, renderRecord(t, r))
		}
		seen = len(j.recs)
		s := c.CacheStats()
		fmt.Fprintf(w, "%d cache hits=%d misses=%d\n", op, s.Hits, s.Misses)
	}
	w.WriteString(mutationScriptEach(c, seed, 40, after))
}

// renderRecord renders a journal record as JSON with its Click sources
// replaced by a digest, which keeps the golden file small and still
// pins every byte of them.
func renderRecord(t *testing.T, r journal.Record) string {
	if r.Dep != nil {
		d := *r.Dep
		d.Config, d.ReqConfig = sourceDigest(d.Config), sourceDigest(d.ReqConfig)
		r.Dep = &d
	}
	out, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

func sourceDigest(src string) string {
	if src == "" {
		return ""
	}
	sum := sha256.Sum256([]byte(src))
	return "sha256:" + hex.EncodeToString(sum[:8])
}
