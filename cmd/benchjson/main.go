// Command benchjson converts `go test -bench` output on stdin into a JSON
// perf report: one object per benchmark, keyed by name, with ns/op,
// B/op, allocs/op and any custom ReportMetric units (speedup-x, B/restore,
// …) as numeric fields. The Makefile's bench-json target pipes the guard
// benchmarks through it to produce BENCH_<PR>.json, the artifact that
// tracks the perf trajectory across PRs.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// metricKey maps a benchmark unit to a stable JSON field name: letters
// and digits are kept, '%' reads "pct" ("overhead-%" → "overhead_pct") and
// every other byte becomes '_'.
func metricKey(unit string) string {
	switch unit {
	case "ns/op":
		return "ns_per_op"
	case "B/op":
		return "bytes_per_op"
	case "allocs/op":
		return "allocs_per_op"
	case "MB/s":
		return "mb_per_s"
	}
	var b strings.Builder
	for _, r := range unit {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			b.WriteRune(r)
		case r == '%':
			b.WriteString("pct")
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// trimProcs strips the trailing -GOMAXPROCS suffix go test appends to
// benchmark names ("BenchmarkRestore/16MiB-8" → "BenchmarkRestore/16MiB").
func trimProcs(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

func main() {
	out := flag.String("o", "", "output file (default stdout)")
	flag.Parse()

	report := map[string]map[string]float64{}
	pkg := ""
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "pkg: "); ok {
			pkg = strings.TrimSpace(rest)
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		f := strings.Fields(line)
		// name, iterations, then (value, unit) pairs.
		if len(f) < 4 || len(f)%2 != 0 {
			continue
		}
		name := trimProcs(f[0])
		if _, taken := report[name]; taken {
			// The same benchmark name in a second package: qualify both
			// ways of reading it by prefixing the package path tail.
			name = pkg[strings.LastIndexByte(pkg, '/')+1:] + "." + name
		}
		m := map[string]float64{}
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				continue
			}
			m[metricKey(f[i+1])] = v
		}
		if len(m) > 0 {
			report[name] = m
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson: read:", err)
		os.Exit(1)
	}
	if len(report) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		os.Exit(1)
	}

	enc, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %d benchmarks to %s\n", len(report), *out)
}
