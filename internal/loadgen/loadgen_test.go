package loadgen

import (
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/rapidd"
	"repro/internal/trace"
	"repro/internal/util"
)

func TestParseConfigDefaults(t *testing.T) {
	cfg, err := ParseConfig([]byte(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Clients != 4 || cfg.Requests != 100 || cfg.Keys != 8 || cfg.Seed != 1 || cfg.TimeoutMS != 60000 {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
}

func TestParseConfigRejectsBadInput(t *testing.T) {
	for _, body := range []string{
		`not json`,
		`{"clients":-1}`,
		`{"clients":9999}`,
		`{"requests":-5}`,
		`{"keys":100000}`,
		`{"skew":-1}`,
		`{"skew":100}`,
		`{"fault_frac":1.5}`,
		`{"drop_frac":-0.1}`,
		`{"dup_frac":2}`,
		`{"deadline_ms":-1}`,
		`{"timeout_ms":-1}`,
		`{"n":-3}`,
	} {
		if _, err := ParseConfig([]byte(body)); err == nil {
			t.Errorf("config %s accepted, want error", body)
		}
	}
}

// TestPickerDeterministicAndSkewed: the key stream is a pure function of
// the seed, and a positive skew concentrates mass on key 0.
func TestPickerDeterministicAndSkewed(t *testing.T) {
	pk := newPicker(16, 1.5)
	a, b := util.NewRNG(42), util.NewRNG(42)
	counts := make([]int, 16)
	for i := 0; i < 5000; i++ {
		ka, kb := pk.pick(a), pk.pick(b)
		if ka != kb {
			t.Fatalf("draw %d: %d vs %d from equal seeds", i, ka, kb)
		}
		counts[ka]++
	}
	if counts[0] <= counts[15] {
		t.Fatalf("skew 1.5 did not concentrate: counts[0]=%d counts[15]=%d", counts[0], counts[15])
	}
	// Uniform picker spreads within a loose tolerance.
	flat := newPicker(4, 0)
	fc := make([]int, 4)
	rng := util.NewRNG(7)
	for i := 0; i < 4000; i++ {
		fc[flat.pick(rng)]++
	}
	for k, c := range fc {
		if c < 700 || c > 1300 {
			t.Fatalf("uniform picker key %d drawn %d/4000 times", k, c)
		}
	}
}

func openServer(t *testing.T, cfg rapidd.Config) *rapidd.Server {
	t.Helper()
	srv, err := rapidd.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// TestRunAgainstInProcessServer drives a small deterministic load at a real
// rapidd server and checks the accounting adds up: every request lands in
// exactly one outcome bucket, repeats of hot keys hit the plan cache, and
// the report carries the headline numbers.
func TestRunAgainstInProcessServer(t *testing.T) {
	srv := openServer(t, rapidd.Config{Workers: 2, QueueDepth: 16, Metrics: trace.NewMetrics()})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	cfg := Config{
		URL:      ts.URL,
		Clients:  3,
		Requests: 12,
		Keys:     2,
		Skew:     1,
		N:        80,
		Procs:    2,
		Seed:     9,
	}
	res, err := Run(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Issued != 12 {
		t.Fatalf("issued %d, want 12", res.Issued)
	}
	if res.Done+res.Failed+res.Shed+res.Errors != res.Issued {
		t.Fatalf("outcomes do not partition issued: %+v", res)
	}
	if res.Errors != 0 || res.Failed != 0 {
		t.Fatalf("clean load produced errors=%d failed=%d", res.Errors, res.Failed)
	}
	if res.Done != 12 {
		t.Fatalf("done %d, want 12", res.Done)
	}
	// 12 requests over 2 structures: most serves must be cache hits or
	// coalesced onto an in-flight twin.
	if res.CacheHits+res.Coalesced < 8 {
		t.Fatalf("only %d cache hits + %d coalesced out of 12", res.CacheHits, res.Coalesced)
	}
	if res.Latency.Count() != res.Done {
		t.Fatalf("latency samples %d != done %d", res.Latency.Count(), res.Done)
	}
	if res.Throughput() <= 0 {
		t.Fatal("throughput not positive")
	}
	rep := res.Report()
	for _, want := range []string{"throughput", "latency_p50", "shed", "cache_hits"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
}

// TestRunCountsShedResponses aims more clients than the server's worker +
// queue capacity at slow jobs: some requests must be shed (counted, not
// errored) and the run still terminates with the books balanced.
func TestRunCountsShedResponses(t *testing.T) {
	srv := openServer(t, rapidd.Config{Workers: -1, QueueDepth: -1, Metrics: trace.NewMetrics()})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	cfg := Config{
		URL:      ts.URL,
		Clients:  4,
		Requests: 16,
		Keys:     1,
		N:        80,
		Procs:    2,
		Seed:     3,
		HoldMS:   30,
	}
	res, err := Run(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Shed == 0 {
		t.Fatalf("4 clients vs 1 worker with no queue shed nothing: %+v", res)
	}
	if res.Errors != 0 {
		t.Fatalf("shed responses must not count as errors: %+v", res)
	}
	if res.Done+res.Failed+res.Shed+res.Errors != res.Issued {
		t.Fatalf("outcomes do not partition issued: %+v", res)
	}
	if res.ShedRate() <= 0 {
		t.Fatal("shed rate not positive")
	}
}

func TestRunRejectsMissingURL(t *testing.T) {
	if _, err := Run(Config{}, nil); err == nil {
		t.Fatal("Run without URL must error")
	}
}

// TestSplitClientsShares: clients split across tenants by share, every
// tenant gets at least one client, and the assignment is deterministic.
func TestSplitClientsShares(t *testing.T) {
	cfg := Config{
		Clients: 10,
		Tenants: []TenantMix{
			{Name: "heavy", Share: 8},
			{Name: "a", Share: 1},
			{Name: "b", Share: 1},
		},
	}
	if err := cfg.Normalize(); err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, m := range splitClients(cfg) {
		if m == nil {
			t.Fatal("tenant run produced a nil mix")
		}
		counts[m.Name]++
	}
	if counts["heavy"] != 8 || counts["a"] != 1 || counts["b"] != 1 {
		t.Fatalf("split %v, want heavy=8 a=1 b=1", counts)
	}

	// A tiny share still gets one client.
	cfg2 := Config{
		Clients: 4,
		Tenants: []TenantMix{
			{Name: "big", Share: 100},
			{Name: "tiny", Share: 1},
		},
	}
	if err := cfg2.Normalize(); err != nil {
		t.Fatal(err)
	}
	counts2 := map[string]int{}
	for _, m := range splitClients(cfg2) {
		counts2[m.Name]++
	}
	if counts2["tiny"] < 1 || counts2["big"]+counts2["tiny"] != 4 {
		t.Fatalf("split %v, want tiny>=1 and total 4", counts2)
	}

	// Single-tenant runs assign no mixes.
	cfg3 := Config{Clients: 3}
	if err := cfg3.Normalize(); err != nil {
		t.Fatal(err)
	}
	for _, m := range splitClients(cfg3) {
		if m != nil {
			t.Fatal("single-tenant run produced a mix")
		}
	}
}

// TestRunMultiTenantMix drives a 2-tenant mix at an in-process server and
// checks the per-tenant books: every spec carried its tenant, sub-results
// partition the total, and the report names each tenant.
func TestRunMultiTenantMix(t *testing.T) {
	metrics := trace.NewMetrics()
	srv := openServer(t, rapidd.Config{Workers: 2, QueueDepth: 16, Metrics: metrics})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	cfg := Config{
		URL:      ts.URL,
		Clients:  4,
		Requests: 12,
		Keys:     2,
		N:        80,
		Procs:    2,
		Seed:     9,
		Tenants: []TenantMix{
			{Name: "gold", Share: 3, Priority: "high"},
			{Name: "bronze", Share: 1, Priority: "low"},
		},
	}
	res, err := Run(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Done != 12 || res.Errors != 0 {
		t.Fatalf("done=%d errors=%d, want 12/0", res.Done, res.Errors)
	}
	if len(res.Tenants) != 2 {
		t.Fatalf("per-tenant results %d, want 2", len(res.Tenants))
	}
	var sum int64
	for name, tr := range res.Tenants {
		if tr.Issued == 0 {
			t.Errorf("tenant %s issued nothing", name)
		}
		sum += tr.Issued
	}
	if sum != res.Issued {
		t.Fatalf("tenant issued sum %d != total %d", sum, res.Issued)
	}
	// gold ran 3 of 4 clients → ~3/4 of requests.
	if res.Tenants["gold"].Issued <= res.Tenants["bronze"].Issued {
		t.Fatalf("gold issued %d <= bronze %d despite 3x share",
			res.Tenants["gold"].Issued, res.Tenants["bronze"].Issued)
	}
	// The daemon saw both tenants (its per-tenant ledger confirms the
	// specs carried the names).
	rep := res.Report()
	for _, want := range []string{"tenant/gold p99", "tenant/bronze p99", "tenant/gold done"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
}
