package obs_test

// Drift checks between the exported metric families and their consumers,
// in both directions. Forward: every ecss_* family referenced anywhere in
// alerts/ecss.rules.yml must exist in the registered exposition of at
// least one daemon (ecssd's service registry or ecssrouter's); a rule
// watching a family nobody exports would silently never fire. Reverse:
// every family either daemon exports must be named in a non-comment line
// of alerts/ecss.rules.yml (an expr or an annotation) or in cmd/loadgen's
// Go source; an export nothing reads is dead weight on every scrape. Both
// turn drift into a build failure.

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"twoecss/internal/ecss"
	"twoecss/internal/graph"
	"twoecss/internal/obs"
	"twoecss/internal/router"
	"twoecss/internal/service"
	"twoecss/internal/store"
)

// familyRef matches an ecss_* metric name. The trailing [a-z0-9] keeps glob
// prefixes like "ecss_engine_*" in prose from matching as (truncated)
// family names.
var familyRef = regexp.MustCompile(`\becss_[a-z0-9_]*[a-z0-9]\b`)

// scrape renders one registry's /metrics through its HTTP handler, failing
// on an invalid exposition.
func scrape(t *testing.T, h http.Handler) []byte {
	t.Helper()
	srv := httptest.NewServer(h)
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	doc, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := obs.ValidateExposition(doc); err != nil {
		t.Fatalf("exposition invalid: %v", err)
	}
	return doc
}

// expositions returns ecssd's and ecssrouter's /metrics documents with
// every conditional family registered: a service with a disk store that
// has run one real solve, and a router fronting it as its one shard.
func expositions(t *testing.T) (shardDoc, routerDoc []byte) {
	t.Helper()
	// ecssd's exposition: a service with a disk store (store families) that
	// has run one real solve (stage histograms are get-or-create).
	st, err := store.OpenWith(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	svc := service.New(service.Config{Workers: 1, Store: st})
	g, err := graph.ByFamily("ring", 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	j, _, err := svc.Submit(g, ecss.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-j.Done():
	case <-time.After(30 * time.Second):
		t.Fatal("drift-check solve did not finish")
	}
	shardDoc = scrape(t, svc.Handler())

	// ecssrouter's exposition, fronting the live service as its one shard so
	// the shard-tagged engine aggregation has something to scrape.
	shardSrv := httptest.NewServer(svc.Handler())
	defer shardSrv.Close()
	rt, err := router.New(router.Config{ProbeInterval: time.Hour}, []string{shardSrv.URL})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	return shardDoc, scrape(t, rt.Handler())
}

func TestAlertRulesReferenceOnlyExportedFamilies(t *testing.T) {
	rules, err := os.ReadFile("../../alerts/ecss.rules.yml")
	if err != nil {
		t.Fatal(err)
	}
	referenced := familyRef.FindAll(rules, -1)
	if len(referenced) == 0 {
		t.Fatal("no ecss_* families referenced in alerts/ecss.rules.yml — parse failure?")
	}

	shardDoc, routerDoc := expositions(t)
	exported := obs.ExpoSeriesNames(shardDoc)
	for name := range obs.ExpoSeriesNames(routerDoc) {
		exported[name] = true
	}

	missing := map[string]bool{}
	for _, ref := range referenced {
		if name := string(ref); !exported[name] {
			missing[name] = true
		}
	}
	if len(missing) > 0 {
		names := make([]string, 0, len(missing))
		for n := range missing {
			names = append(names, n)
		}
		sort.Strings(names)
		t.Fatalf("alerts/ecss.rules.yml references families absent from both daemons' expositions: %v", names)
	}

	// Sanity: the rules do reference the SLO and engine families, so the
	// check above actually exercises them.
	for _, want := range []string{"ecss_slo_burn_rate", "ecss_engine_rounds_total"} {
		if !bytes.Contains(rules, []byte(want)) {
			t.Fatalf("alert rules no longer reference %s — drift check weakened", want)
		}
	}
}

// consumerText returns the non-comment lines of path: lines whose first
// non-blank characters are not the file type's comment marker.
func consumerText(t *testing.T, path, comment string) string {
	t.Helper()
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, line := range strings.Split(string(src), "\n") {
		if !strings.HasPrefix(strings.TrimSpace(line), comment) {
			b.WriteString(line)
			b.WriteByte('\n')
		}
	}
	return b.String()
}

func TestExportedFamiliesHaveConsumers(t *testing.T) {
	// The consumers: the alert rules and loadgen's gates. A family named
	// only in a comment has no reader.
	text := consumerText(t, "../../alerts/ecss.rules.yml", "#")
	srcs, err := filepath.Glob("../../cmd/loadgen/*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range srcs {
		if !strings.HasSuffix(src, "_test.go") {
			text += consumerText(t, src, "//")
		}
	}
	consumed := map[string]bool{}
	for _, ref := range familyRef.FindAllString(text, -1) {
		consumed[ref] = true
	}

	shardDoc, routerDoc := expositions(t)
	families := map[string]bool{}
	for _, doc := range [][]byte{shardDoc, routerDoc} {
		names := obs.ExpoSeriesNames(doc)
		for name := range names {
			// A histogram's _bucket/_sum/_count series belong to its family.
			fam := name
			for _, suf := range []string{"_bucket", "_sum", "_count"} {
				if base := strings.TrimSuffix(name, suf); base != name && names[base] {
					fam = base
				}
			}
			families[fam] = true
		}
	}

	var unread []string
	for fam := range families {
		if consumed[fam] {
			continue
		}
		read := false
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			read = read || consumed[fam+suf]
		}
		if !read {
			unread = append(unread, fam)
		}
	}
	if len(unread) > 0 {
		sort.Strings(unread)
		t.Fatalf("%d of %d exported families are named by no alert rule and read by no loadgen gate; delete them or give each a consumer:\n%s",
			len(unread), len(families), strings.Join(unread, "\n"))
	}
}
