package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"strconv"
	"strings"
)

// cpuModules are the internal packages that get a bucket of their own;
// other internal packages land in cpu.other.
var cpuModules = []string{
	"population", "simnet", "portscan", "iprange", "scanner", "prefilter", "tsunami",
	"fingerprint", "httpsim", "apps", "fabric", "orchestrator", "observer",
}

// cpuBucketNames lists every bucket cpuBuckets reports.
func cpuBucketNames() []string {
	out := make([]string, 0, len(cpuModules)+5)
	for _, m := range cpuModules {
		out = append(out, "cpu."+m)
	}
	return append(out, "cpu.tls", "cpu.http", "cpu.gc", "cpu.runtime", "cpu.other")
}

// cpuBuckets attributes the traced phase's CPU profiles (one per measured
// run, merged) to buckets by the package of each sample's leaf function,
// as `go tool pprof -top` lists them, and returns CPU seconds per traced
// iteration. The buckets cover
// work no wrapper can time: host materialization inside a probe, X25519
// and ECDSA inside a handshake, garbage collection.
func cpuBuckets(profiles []string, iterations int) (map[string]float64, error) {
	args := append([]string{"tool", "pprof", "-top", "-nodecount=1000000", "-nodefraction=0",
		"-edgefraction=0", "-unit=ms"}, profiles...)
	cmd := exec.Command("go", args...)
	var out, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, strings.TrimSpace(stderr.String()))
	}
	buckets := map[string]float64{}
	for _, name := range cpuBucketNames() {
		buckets[name] = 0
	}
	sc := bufio.NewScanner(&out)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 6 || !strings.HasSuffix(f[0], "ms") || !strings.HasSuffix(f[1], "%") {
			continue
		}
		ms, err := strconv.ParseFloat(strings.TrimSuffix(f[0], "ms"), 64)
		if err != nil {
			continue
		}
		fn := strings.Join(f[5:], " ")
		buckets[bucketOf(fn)] += ms / 1000 / float64(iterations)
	}
	return buckets, sc.Err()
}

// leafPackage returns the import path of a function symbol such as
// "mavscan/internal/population.(*layout).locate".
func leafPackage(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

func bucketOf(fn string) string {
	if !strings.Contains(fn, ".") {
		// Assembly routines without a package qualifier: the P-256 field
		// arithmetic, and the runtime's memory and string primitives.
		if strings.HasPrefix(fn, "p256") {
			return "cpu.tls"
		}
		return "cpu.runtime"
	}
	pkg := leafPackage(fn)
	if rest, ok := strings.CutPrefix(pkg, "mavscan/internal/"); ok {
		mod, _, _ := strings.Cut(rest, "/")
		for _, m := range cpuModules {
			if m == mod {
				return "cpu." + m
			}
		}
		return "cpu.other"
	}
	switch {
	case strings.HasPrefix(pkg, "crypto/") || strings.HasPrefix(pkg, "vendor/golang.org/x/crypto/") ||
		pkg == "math/big":
		return "cpu.tls"
	case strings.HasPrefix(pkg, "net/") || pkg == "net" || pkg == "bufio" ||
		strings.HasPrefix(pkg, "vendor/golang.org/x/net/") || strings.HasPrefix(pkg, "mime"):
		return "cpu.http"
	case pkg == "runtime" && isGC(fn):
		return "cpu.gc"
	case pkg == "runtime" || strings.HasPrefix(pkg, "internal/runtime/"):
		return "cpu.runtime"
	}
	return "cpu.other"
}

// gcFuncs are the runtime's marking, sweeping and write-barrier routines.
var gcFuncs = []string{
	"runtime.gc", "runtime.scan", "runtime.markroot", "runtime.greyobject", "runtime.findObject",
	"runtime.(*gcWork)", "runtime.(*gcBits)", "runtime.sweep", "runtime.(*sweepLocked)",
	"runtime.(*mspan).sweep", "runtime.bgsweep", "runtime.wbBuf", "runtime.bulkBarrier",
	"runtime.typePointers", "runtime.(*mspan).typePointers", "runtime.(*gcControllerState)",
	"runtime.markBits", "runtime.(*markBits)", "runtime.spanOf", "runtime.heapBits",
	"runtime.(*mheap).freeSpan", "runtime.(*mcentral).uncacheSpan", "runtime.(*pageAlloc).free",
}

func isGC(fn string) bool {
	for _, p := range gcFuncs {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}
