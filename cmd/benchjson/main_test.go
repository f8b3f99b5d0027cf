package main

import "testing"

func TestMetricKey(t *testing.T) {
	for _, tc := range []struct{ unit, want string }{
		{"ns/op", "ns_per_op"},
		{"B/op", "bytes_per_op"},
		{"allocs/op", "allocs_per_op"},
		{"MB/s", "mb_per_s"},
		{"overhead-%", "overhead_pct"},
		{"space-overhead-%", "space_overhead_pct"},
		{"hot-overhead-%", "hot_overhead_pct"},
		{"speedup-x", "speedup_x"},
		{"B/restore", "B_restore"},
		{"ev/s", "ev_s"},
		{"serial-Mcycles", "serial_Mcycles"},
		{"µs", "_s"},
	} {
		if got := metricKey(tc.unit); got != tc.want {
			t.Errorf("metricKey(%q) = %q, want %q", tc.unit, got, tc.want)
		}
	}
}

func TestTrimProcs(t *testing.T) {
	for _, tc := range []struct{ name, want string }{
		{"BenchmarkRestore/16MiB-8", "BenchmarkRestore/16MiB"},
		{"BenchmarkStandbyCloneWarm/events=100k-2", "BenchmarkStandbyCloneWarm/events=100k"},
		{"BenchmarkX", "BenchmarkX"},
		{"BenchmarkX/a-b", "BenchmarkX/a-b"},
	} {
		if got := trimProcs(tc.name); got != tc.want {
			t.Errorf("trimProcs(%q) = %q, want %q", tc.name, got, tc.want)
		}
	}
}
