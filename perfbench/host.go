package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// hostRecord describes the machine and the code a result was measured
// on, so a number can be compared only with numbers from the same host.
func hostRecord() map[string]any {
	rec := map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"kernel":     kernel(),
		"source":     sourceDigest("."),
		"commit":     "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rec["commit"] = s.Value
			case "vcs.modified":
				rec["dirty"] = s.Value == "true"
			}
		}
	}
	return rec
}

func kernel() string {
	var u syscall.Utsname
	if err := syscall.Uname(&u); err != nil {
		return "unknown"
	}
	var b strings.Builder
	for _, c := range u.Release {
		if c == 0 {
			break
		}
		b.WriteByte(byte(c))
	}
	return b.String()
}

// sourceDigest hashes the Go sources and go.mod files under root, so a
// checkout without git history still names the code it measured.
func sourceDigest(root string) string {
	var files []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (strings.HasPrefix(d.Name(), ".") && p != root) {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	if err != nil || len(files) == 0 {
		return "unknown"
	}
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		f, err := os.Open(p)
		if err != nil {
			return "unknown"
		}
		io.WriteString(h, p+"\x00")
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "unknown"
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// peakRSSMiB is the process's resident-set high-water mark.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// poolUtil is CPU time over wall time times GOMAXPROCS: 1 means every
// processor the runtime may use was busy for the whole interval.
func poolUtil(cpu, wall time.Duration) float64 {
	if wall <= 0 {
		return 0
	}
	return float64(cpu) / (float64(wall) * float64(runtime.GOMAXPROCS(0)))
}

// setupGroup is how many consecutive set-up repetitions are averaged
// before the median is taken.
const setupGroup = 4

// medianSetup repeats a set-up sequence reps times and returns the median
// of the means of consecutive groups of setupGroup repetitions, with the
// repetition times in ms. The first (cold) repetition is included. GC runs
// before each repetition so each starts from a collected heap, as a fresh
// process would. Every repetition but the last is torn down, untimed; the
// last one is what the run goes on to measure.
//
// Identical set-ups on the shared host take one of a few discrete times
// (on WSSC about 10, 13.5 and 17.5 ms), in proportions that drift. A plain
// median jumps between those levels when the proportions are near even; a
// median of group means moves with the proportions instead.
func medianSetup(reps int, once func() (teardown func(), err error)) (time.Duration, []float64, error) {
	ds := make([]float64, 0, reps)
	for r := 0; r < reps; r++ {
		runtime.GC()
		start := time.Now()
		teardown, err := once()
		if err != nil {
			return 0, nil, err
		}
		ds = append(ds, float64(time.Since(start))/float64(time.Millisecond))
		if r < reps-1 && teardown != nil {
			teardown()
		}
	}
	var means []float64
	for lo := 0; lo < len(ds); lo += setupGroup {
		hi := min(lo+setupGroup, len(ds))
		sum := 0.0
		for _, d := range ds[lo:hi] {
			sum += d
		}
		means = append(means, sum/float64(hi-lo))
	}
	return time.Duration(median(means) * float64(time.Millisecond)), ds, nil
}
