package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// environment stamps a result with what it was measured on: core count,
// GOMAXPROCS, Go version, CPU model, the commit when the checkout is a git
// repository, and a digest of the Go sources either way.
func environment(root string) map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"commit":     commit(root),
		"source":     sourceDigest(root),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func commit(root string) string {
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	var out bytes.Buffer
	cmd.Stdout = &out
	if err := cmd.Run(); err != nil {
		return "unknown"
	}
	return strings.TrimSpace(out.String())
}

// sourceDigest hashes every .go file and go.mod under root (build output
// excluded), in path order: two checkouts of one commit share it.
func sourceDigest(root string) string {
	var paths []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(name, ".go") || name == "go.mod" {
			paths = append(paths, path)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return "unknown"
		}
		rel, _ := filepath.Rel(root, p)
		h.Write([]byte(rel + "\x00"))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}
