package observer

import (
	"net/netip"
	"sync/atomic"
	"testing"
	"time"

	"mavscan/internal/apps"
	"mavscan/internal/httpsim"
	"mavscan/internal/mav"
	"mavscan/internal/simnet"
	"mavscan/internal/simtime"
	"mavscan/internal/telemetry"
)

// TestChurnBetweenTicksSeenOnNextTick: a check's connection ends with the
// check, so whatever happens to a host between two ticks shows on the
// next one — going offline, coming back, and being replaced by a secured
// deployment on the same port.
func TestChurnBetweenTicksSeenOnNextTick(t *testing.T) {
	n := simnet.New()
	sim := simtime.NewSim(start)
	_, host, target := deployTarget(t, n, "10.0.0.11")
	sim.At(start.Add(4*time.Hour), func(time.Time) { host.SetOnline(false) })
	sim.At(start.Add(7*time.Hour), func(time.Time) { host.SetOnline(true) })
	sim.At(start.Add(10*time.Hour), func(time.Time) {
		secured, err := apps.New(apps.Config{App: mav.Docker, AuthRequired: true})
		if err != nil {
			t.Error(err)
			return
		}
		host.Bind(target.Port, httpsim.ConnHandler(secured.Handler()))
	})

	obs := New(n, sim)
	obs.Workers = 1
	obs.FingerprintEvery = 1 // every check also reuses its connection
	res := obs.Watch([]Target{target}, 3*time.Hour, 12*time.Hour)
	sim.Run()

	want := []Sample{
		{T: start.Add(3 * time.Hour), Vulnerable: 1},
		{T: start.Add(6 * time.Hour), Offline: 1},
		{T: start.Add(9 * time.Hour), Vulnerable: 1},
		{T: start.Add(12 * time.Hour), Fixed: 1},
	}
	if len(res.Overall) != len(want) {
		t.Fatalf("%d samples, want %d", len(res.Overall), len(want))
	}
	for i, s := range res.Overall {
		if s != want[i] {
			t.Errorf("tick %d: %+v, want %+v", i+1, s, want[i])
		}
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

// TestWatchLeavesNoConnectionOpen: each check opens one connection to its
// target (one fault draw: a replacement the transport may dial under CPU
// load makes none), the MAV re-check and the fingerprinter share it, and
// none is still open once the watch is over.
func TestWatchLeavesNoConnectionOpen(t *testing.T) {
	n := simnet.New()
	sim := simtime.NewSim(start)
	var targets []Target
	for _, ip := range []string{"10.0.0.21", "10.0.0.22", "10.0.0.23"} {
		_, _, tg := deployTarget(t, n, ip)
		targets = append(targets, tg)
	}
	draws := &dialDraws{}
	n.SetFaults(draws)
	reg := telemetry.New(sim)
	obs := New(n, sim)
	obs.Workers = 2
	obs.FingerprintEvery = 1
	obs.Instrument(reg)
	obs.Watch(targets, 3*time.Hour, 12*time.Hour)
	sim.Run()

	deadline := time.Now().Add(5 * time.Second)
	for n.OpenConns() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d server connections still open after the watch", n.OpenConns())
		}
		time.Sleep(time.Millisecond)
	}
	checks := int64(len(targets) * 4)
	if got := draws.n.Load(); got != checks {
		t.Errorf("%d connections drew a fault for %d checks, want one per check", got, checks)
	}
	if reused := reg.CounterValue("mavscan_httpsim_conns_reused_total"); reused == 0 {
		t.Error("the fingerprinter never reused its check's connection")
	}
}
