package scenario

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"wavnet/internal/netsim"
	"wavnet/internal/vm"
	"wavnet/internal/vpc"
)

// goldenScrapeWorld builds the fixed-seed world the scrape golden file
// was rendered from: hosts of two tenants homed on two brokers, a
// world-booted VM, a scheduler-placed managed VM and a probed service.
func goldenScrapeWorld(t *testing.T) *World {
	t.Helper()
	w, err := Build(81, EmulatedWANSpecs(6, 100e6), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.AddBroker("b2", chaosBrokerCfg()); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"pc03", "pc04"} {
		if err := w.SetHome(key, "b2"); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.WAVNetUp("pc05"); err != nil {
		t.Fatal(err)
	}
	if _, err := w.AddVM("pc05", "legacy", netsim.MakeIP(10, 0, 0, 50), vm.Config{MemoryMB: 16}); err != nil {
		t.Fatal(err)
	}
	acme := vpc.TenantSpec{
		Tenant: "acme",
		Networks: []vpc.NetworkSpec{{
			Name: "red", CIDR: "10.60.0.0/24", StaticAddressing: true,
			ServicePool: "10.60.0.192/28",
			Members:     []string{"pc00", "pc01", "pc02"},
		}},
		VMs: []vpc.VMSpec{{Name: "db", Network: "red", IP: "10.60.0.100", MemoryMB: 32}},
		Services: []vpc.ServiceSpec{{
			Name: "web", Network: "red", VIP: "10.60.0.200",
			Backends: []vpc.BackendSpec{{Member: "pc01"}, {Member: "pc02"}},
			Interval: time.Second,
		}},
	}
	globex := vpc.TenantSpec{
		Tenant: "globex",
		Networks: []vpc.NetworkSpec{{
			Name: "blue", CIDR: "10.61.0.0/24", StaticAddressing: true,
			Members: []string{"pc03", "pc04"},
			Brokers: []string{"b2"},
		}},
	}
	for _, spec := range []vpc.TenantSpec{acme, globex} {
		if rep, err := w.ApplySync(spec); err != nil {
			t.Fatalf("apply %s: %v (report: %v)", spec.Tenant, err, rep)
		}
	}
	w.Eng.RunFor(10 * time.Second)
	return w
}

// TestScrapeGolden pins the world scrape's full text render — series
// names, label sets and values — against testdata/scrape.golden.
func TestScrapeGolden(t *testing.T) {
	w := goldenScrapeWorld(t)
	want, err := os.ReadFile(filepath.Join("testdata", "scrape.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got := w.Scrape().String(); got != string(want) {
		t.Fatalf("scrape differs from testdata/scrape.golden:\n%s", got)
	}
}
