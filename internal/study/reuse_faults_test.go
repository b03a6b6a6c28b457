package study

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
	"time"

	"mavscan/internal/faults"
	"mavscan/internal/population"
	"mavscan/internal/resilience"
	"mavscan/internal/scanner"
	"mavscan/internal/simtime"
	"mavscan/internal/telemetry"
)

// TestFaultDrawsDeterministicUnderReuse: with connections kept per work
// unit, a fault is drawn per connection rather than per request, and a
// unit dials again only when the server or a budget closed its
// connection. The number of draws must therefore stay a function of the
// seed: two runs make the same number of fault attempts and produce
// byte-identical reports.
func TestFaultDrawsDeterministicUnderReuse(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two scan studies")
	}
	run := func() ([]byte, uint64) {
		reg := telemetry.New(simtime.NewSim(population.ScanDate))
		scan, err := RunScan(context.Background(), ScanConfig{
			Population: population.Config{
				Seed: 9, HostScale: 8000, VulnScale: 8,
				BackgroundScale: -1, WildcardScale: -1,
			},
			Scan:       scanner.Options{Seed: 9},
			Faults:     faults.Config{Seed: 11, Rate: 0.1, Latency: time.Nanosecond},
			Resilience: resilience.Policy{MaxAttempts: 3, JitterSeed: 2},
			Telemetry:  reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		report := *scan.Report
		report.Stats.Elapsed = 0 // wall-clock noise, not part of the result
		data, err := json.Marshal(&report)
		if err != nil {
			t.Fatal(err)
		}
		if reg.CounterValue("mavscan_httpsim_conns_reused_total") == 0 {
			t.Error("no connection was reused under faults")
		}
		return data, reg.CounterValue("mavscan_faults_attempts_total")
	}
	reportA, attemptsA := run()
	reportB, attemptsB := run()
	if attemptsA != attemptsB {
		t.Errorf("fault attempts differ across runs: %d vs %d", attemptsA, attemptsB)
	}
	if !bytes.Equal(reportA, reportB) {
		t.Error("same fault seed produced different report bytes")
	}
}
