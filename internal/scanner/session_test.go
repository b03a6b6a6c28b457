package scanner

import (
	"context"
	"net/netip"
	"sync/atomic"
	"testing"
	"time"

	"mavscan/internal/population"
	"mavscan/internal/simnet"
	"mavscan/internal/simtime"
	"mavscan/internal/telemetry"
)

// TestOneHandshakePerHTTPSEndpoint scans the standard small world and
// checks the connection model end to end: a Stage-I hit's prefilter,
// Tsunami and fingerprint requests share one connection, so completed TLS
// handshakes never exceed the HTTPS endpoints Stage II reached, pooled
// connections are reused, and nothing is left open once Run returns.
//
// Go's transport can still replace a cleanly ended connection when its
// writer goroutine reports late (CPU load); such a replacement dials
// without a fault draw, so dials minus draws counts them, and each may
// cost one more handshake.
func TestOneHandshakePerHTTPSEndpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("world scan is slow")
	}
	world, err := population.Generate(population.Config{
		Seed: 9, HostScale: 8000, VulnScale: 8,
		BackgroundScale: -1, WildcardScale: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	draws := &dialDraws{}
	world.Net.SetFaults(draws)
	reg := telemetry.New(simtime.NewSim(time.Date(2021, 6, 3, 0, 0, 0, 0, time.UTC)))
	report, err := New(world.Net, WithTelemetry(reg)).Run(context.Background(), Options{
		Targets: world.Geo.Prefixes(),
		Seed:    9,
	})
	if err != nil {
		t.Fatal(err)
	}
	waitNoOpenConns(t, world.Net)

	endpoints := 0
	for _, c := range report.HTTPSResponses {
		endpoints += c
	}
	handshakes := reg.CounterValue("mavscan_httpsim_tls_handshakes_total")
	reused := reg.CounterValue("mavscan_httpsim_conns_reused_total")
	dials := reg.CounterValue("mavscan_httpsim_dials_total")
	replaced := dials - uint64(draws.n.Load())
	t.Logf("%d HTTPS endpoints, %d handshakes, %d dials (%d replacements), %d reused",
		endpoints, handshakes, dials, replaced, reused)
	if endpoints == 0 || handshakes == 0 {
		t.Fatalf("the world has no HTTPS traffic (%d endpoints, %d handshakes)", endpoints, handshakes)
	}
	if handshakes > uint64(endpoints)+replaced {
		t.Errorf("%d completed TLS handshakes for %d HTTPS endpoints (%d replaced connections), want at most one each",
			handshakes, endpoints, replaced)
	}
	if reused == 0 {
		t.Error("no connection was reused within a hit")
	}
}

// dialDraws is a fault injector that injects nothing and counts the dials
// that drew.
type dialDraws struct{ n atomic.Int64 }

func (*dialDraws) ProbeFault(netip.Addr, int) error { return nil }
func (d *dialDraws) DialFault(netip.Addr, int) simnet.Fault {
	d.n.Add(1)
	return simnet.Fault{}
}

// waitNoOpenConns fails the test unless every server-side connection of n
// closes within a few seconds (handlers close their side asynchronously,
// once they see the client hang up).
func waitNoOpenConns(t *testing.T, n *simnet.Network) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for n.OpenConns() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d server connections still open", n.OpenConns())
		}
		time.Sleep(time.Millisecond)
	}
}
