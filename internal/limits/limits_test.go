package limits

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"mavscan/internal/simtime"
)

func TestReadBodyBoundary(t *testing.T) {
	const cap = 1 << 10
	cases := []struct {
		name      string
		size      int
		wantLen   int
		truncated bool
	}{
		{"under", cap - 1, cap - 1, false},
		{"exact", cap, cap, false},
		{"one-over", cap + 1, cap, true},
		{"far-over", 8 * cap, cap, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			body, truncated, err := ReadBody(strings.NewReader(strings.Repeat("x", tc.size)), cap)
			if err != nil {
				t.Fatalf("ReadBody: %v", err)
			}
			if len(body) != tc.wantLen {
				t.Errorf("len = %d, want %d", len(body), tc.wantLen)
			}
			if truncated != tc.truncated {
				t.Errorf("truncated = %v, want %v", truncated, tc.truncated)
			}
		})
	}
}

func TestDrainStopsAtCap(t *testing.T) {
	src := &countingReader{n: 10 * DrainBody}
	if err := Drain(src); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if src.read != DrainBody {
		t.Errorf("drained %d bytes, want %d", src.read, DrainBody)
	}
}

// countingReader yields n zero bytes and records how many were consumed.
type countingReader struct{ n, read int64 }

func (r *countingReader) Read(p []byte) (int, error) {
	if r.read >= r.n {
		return 0, io.EOF
	}
	if int64(len(p)) > r.n-r.read {
		p = p[:r.n-r.read]
	}
	for i := range p {
		p[i] = 0
	}
	r.read += int64(len(p))
	return len(p), nil
}

func TestConnBudget(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	go func() {
		buf := bytes.Repeat([]byte("y"), 64)
		for {
			if _, err := b.Write(buf); err != nil {
				return
			}
		}
	}()
	c := Conn(a, 100)
	got, err := io.ReadAll(io.LimitReader(c, 1<<20))
	if !errors.Is(err, ErrConnBudget) {
		t.Fatalf("err = %v, want ErrConnBudget", err)
	}
	if len(got) != 100 {
		t.Errorf("read %d bytes before budget, want 100", len(got))
	}
}

// TestRefillRestoresBudget: the budget is per request, so a kept-alive
// connection refilled for its next request reads a full budget again.
func TestRefillRestoresBudget(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	go func() {
		buf := bytes.Repeat([]byte("y"), 64)
		for {
			if _, err := b.Write(buf); err != nil {
				return
			}
		}
	}()
	c := Conn(a, 100)
	for request := 1; request <= 3; request++ {
		got, err := io.ReadAll(io.LimitReader(c, 1<<20))
		if !errors.Is(err, ErrConnBudget) || len(got) != 100 {
			t.Fatalf("request %d: read %d bytes, %v; want 100 then ErrConnBudget", request, len(got), err)
		}
		Refill(c)
	}
	Refill(a) // not a budgeted connection: left alone
}

// notifyCloser flags Close calls.
type notifyCloser struct{ closed chan struct{} }

func (c *notifyCloser) Close() error {
	select {
	case <-c.closed:
	default:
		close(c.closed)
	}
	return nil
}

// firingSleeper delivers After immediately, letting watchdog tests prove
// termination without waiting out a wall budget.
type firingSleeper struct{}

func (firingSleeper) Now() time.Time { return time.Time{} }
func (firingSleeper) After(time.Duration) <-chan time.Time {
	ch := make(chan time.Time, 1)
	ch <- time.Time{}
	return ch
}

// stuckSleeper never fires.
type stuckSleeper struct{}

func (stuckSleeper) Now() time.Time                       { return time.Time{} }
func (stuckSleeper) After(time.Duration) <-chan time.Time { return make(chan time.Time) }

func TestWatchdogFires(t *testing.T) {
	c := &notifyCloser{closed: make(chan struct{})}
	stop := Watchdog(c, firingSleeper{}, time.Hour)
	defer stop()
	select {
	case <-c.closed:
	case <-time.After(5 * time.Second):
		t.Fatal("watchdog did not close the connection when the budget elapsed")
	}
}

func TestWatchdogStop(t *testing.T) {
	c := &notifyCloser{closed: make(chan struct{})}
	stop := Watchdog(c, stuckSleeper{}, time.Hour)
	stop()
	stop() // idempotent
	select {
	case <-c.closed:
		t.Fatal("stopped watchdog closed the connection")
	default:
	}
}

func TestWatchdogDefaultClock(t *testing.T) {
	c := &notifyCloser{closed: make(chan struct{})}
	stop := Watchdog(c, nil, time.Hour)
	stop()
}

// afterFuncSleeper exercises the goroutine-free scheduling path a clock
// can offer (simtime.Wall does): the watchdog must route through
// AfterFunc and hand back its stop.
type afterFuncSleeper struct {
	fire    *func() // captured callback, runnable by the test
	stopped *bool
}

func (afterFuncSleeper) Now() time.Time                       { return time.Time{} }
func (afterFuncSleeper) After(time.Duration) <-chan time.Time { return make(chan time.Time) }
func (s afterFuncSleeper) AfterFunc(_ time.Duration, f func()) func() {
	*s.fire = f
	return func() { *s.stopped = true }
}

func TestWatchdogUsesAfterFunc(t *testing.T) {
	var fire func()
	var stopped bool
	c := &notifyCloser{closed: make(chan struct{})}
	stop := Watchdog(c, afterFuncSleeper{fire: &fire, stopped: &stopped}, time.Hour)
	if fire == nil {
		t.Fatal("watchdog did not schedule through the clock's AfterFunc")
	}
	fire()
	select {
	case <-c.closed:
	default:
		t.Fatal("AfterFunc firing did not close the connection")
	}
	stop()
	if !stopped {
		t.Fatal("watchdog stop did not stop the scheduled timer")
	}
}

func TestWallAfterFuncFiresAndStops(t *testing.T) {
	fired := make(chan struct{})
	stop := simtime.Wall{}.AfterFunc(time.Millisecond, func() { close(fired) })
	defer stop()
	select {
	case <-fired:
	case <-time.After(5 * time.Second):
		t.Fatal("Wall.AfterFunc did not fire")
	}
	// A stopped timer must not fire: give it a real chance to misbehave.
	ran := false
	stop2 := simtime.Wall{}.AfterFunc(time.Hour, func() { ran = true })
	stop2()
	if ran {
		t.Fatal("stopped Wall.AfterFunc ran its callback")
	}
}

var _ simtime.Sleeper = firingSleeper{}

func gzipped(t *testing.T, payload []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(payload); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestGunzipRoundTrip(t *testing.T) {
	want := []byte("hello, bounded world")
	got, err := Gunzip(gzipped(t, want), 1<<20)
	if err != nil {
		t.Fatalf("Gunzip: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("Gunzip = %q, want %q", got, want)
	}
}

func TestGunzipRatioCap(t *testing.T) {
	// 8 MiB of zeros compresses ~1000:1 — a textbook bomb.
	bomb := gzipped(t, make([]byte, 8<<20))
	if _, err := Gunzip(bomb, 1<<30); !errors.Is(err, ErrRatio) {
		t.Fatalf("err = %v, want ErrRatio", err)
	}
}

func TestGunzipMaxCap(t *testing.T) {
	// Incompressible data keeps the ratio near 1, so only the caller's cap
	// can trip.
	payload := make([]byte, 8<<10)
	x := uint64(0x9e3779b97f4a7c15)
	for i := range payload {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		payload[i] = byte(x)
	}
	if _, err := Gunzip(gzipped(t, payload), 1<<10); !errors.Is(err, ErrRatio) {
		t.Fatalf("err = %v, want ErrRatio", err)
	}
	if got, err := Gunzip(gzipped(t, payload), int64(len(payload))); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("Gunzip under cap: err=%v", err)
	}
}
