package controller

import (
	"testing"

	"github.com/in-net/innet/internal/security"
)

func dnsRequest(name string) Request {
	return Request{
		Tenant: "erin", ModuleName: name, Stock: StockGeoDNS,
		Trust: security.ThirdParty,
	}
}

func TestStatusLifecycleStrings(t *testing.T) {
	cases := map[DeploymentStatus]string{
		StatusActive: "active", StatusDegraded: "degraded",
		StatusMigrating: "migrating", StatusFailed: "failed",
		DeploymentStatus(99): "unknown",
	}
	for s, want := range cases {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", s, s.String(), want)
		}
	}
}

func TestMarkPlatformDownDegradesHostedDeployments(t *testing.T) {
	c := newController(t)
	dep, err := c.Deploy(dnsRequest("dns"))
	if err != nil {
		t.Fatal(err)
	}
	if dep.Status() != StatusActive {
		t.Fatalf("fresh deployment status = %s", dep.Status())
	}
	affected := c.MarkPlatformDown(dep.Platform)
	if len(affected) != 1 || affected[0].ID != dep.ID {
		t.Fatalf("affected = %v", affected)
	}
	if dep.Status() != StatusDegraded {
		t.Errorf("status = %s, want degraded", dep.Status())
	}
	if h := c.PlatformHealth(); h[dep.Platform] {
		t.Error("platform still healthy in health map")
	}
	c.MarkPlatformUp(dep.Platform)
	if dep.Status() != StatusActive {
		t.Errorf("status = %s after recovery", dep.Status())
	}
}

func TestFailoverMigratesPreservingID(t *testing.T) {
	c := newController(t)
	dep, err := c.Deploy(dnsRequest("dns"))
	if err != nil {
		t.Fatal(err)
	}
	from := dep.Platform
	c.MarkPlatformDown(from)
	migrated, failed := c.Failover(from)
	if len(failed) != 0 {
		t.Fatalf("failed = %v", failed)
	}
	if len(migrated) != 1 {
		t.Fatalf("migrated = %d", len(migrated))
	}
	m := migrated[0]
	if m.From.ID != dep.ID || m.To.ID != dep.ID {
		t.Errorf("ID changed across failover: %s -> %s", m.From.ID, m.To.ID)
	}
	if m.To.Platform == from {
		t.Errorf("re-placed on the down platform %s", from)
	}
	if m.To.Addr == m.From.Addr {
		t.Error("address not re-allocated from the new platform's pool")
	}
	nd, ok := c.Get(dep.ID)
	if !ok || nd != m.To {
		t.Error("deployments map not updated to the new placement")
	}
	if nd.Status() != StatusActive {
		t.Errorf("migrated status = %s", nd.Status())
	}
	if n := c.State().Migrations; n != 1 {
		t.Errorf("Migrations = %d", n)
	}
}

func TestFailoverReverifiesAndFailsWhenNoSafeAlternate(t *testing.T) {
	c := newController(t)
	// Batcher's requirements only hold on Platform3 (§4.5), so its
	// failover must find no verified alternate.
	dep, err := c.Deploy(batcherRequest())
	if err != nil {
		t.Fatal(err)
	}
	c.MarkPlatformDown(dep.Platform)
	migrated, failed := c.Failover(dep.Platform)
	if len(migrated) != 0 {
		t.Fatalf("migrated = %v; policy verification should refuse alternates", migrated)
	}
	if len(failed) != 1 || failed[0].ID != dep.ID {
		t.Fatalf("failed = %v", failed)
	}
	if failed[0].Status() != StatusFailed {
		t.Errorf("status = %s", failed[0].Status())
	}
	if n := c.State().FailedMigrations; n != 1 {
		t.Errorf("FailedMigrations = %d", n)
	}
	// The failed deployment keeps its ID (visible, diagnosable) but no
	// longer counts as hosted on any platform.
	if got, ok := c.Get(dep.ID); !ok || got.Status() != StatusFailed {
		t.Error("failed deployment lost from the map")
	}
}

func TestDeploySkipsDownPlatforms(t *testing.T) {
	c := newController(t)
	d1, err := c.Deploy(dnsRequest("dns1"))
	if err != nil {
		t.Fatal(err)
	}
	c.MarkPlatformDown(d1.Platform)
	d2, err := c.Deploy(dnsRequest("dns2"))
	if err != nil {
		t.Fatal(err)
	}
	if d2.Platform == d1.Platform {
		t.Errorf("new deployment placed on down platform %s", d2.Platform)
	}
	c.MarkPlatformUp(d1.Platform)
	d3, err := c.Deploy(dnsRequest("dns3"))
	if err != nil {
		t.Fatal(err)
	}
	if d3.Platform != d1.Platform {
		t.Errorf("recovered platform %s not used again (got %s)", d1.Platform, d3.Platform)
	}
}

func TestRetryFailedRecoversWhenPlatformReturns(t *testing.T) {
	c := newController(t)
	dep, err := c.Deploy(batcherRequest())
	if err != nil {
		t.Fatal(err)
	}
	home := dep.Platform
	c.MarkPlatformDown(home)
	c.Failover(home) // no alternate -> StatusFailed
	c.MarkPlatformUp(home)
	recovered := c.RetryFailed()
	if len(recovered) != 1 || recovered[0].ID != dep.ID {
		t.Fatalf("recovered = %v", recovered)
	}
	nd, _ := c.Get(dep.ID)
	if nd.Status() != StatusActive || nd.Platform != home {
		t.Errorf("status=%s platform=%s after retry", nd.Status(), nd.Platform)
	}
}

func TestFailoverOfHealthyPlatformMovesNothing(t *testing.T) {
	c := newController(t)
	if _, err := c.Deploy(dnsRequest("dns")); err != nil {
		t.Fatal(err)
	}
	// Failover of a platform hosting nothing is a no-op.
	migrated, failed := c.Failover("Platform3")
	if len(migrated) != 0 || len(failed) != 0 {
		t.Errorf("migrated=%v failed=%v", migrated, failed)
	}
}
