package main

import (
	"bytes"
	"os"
	"testing"
)

// tinyArgs is a fast invocation profile tests piggyback on.
func tinyArgs(extra ...string) []string {
	return append([]string{
		"-vertices", "500", "-edges", "1500", "-threads", "1", "-trials", "1",
	}, extra...)
}

// requirePprof asserts path holds a non-empty gzip stream — the pprof wire
// format — without depending on a profile parser.
func requirePprof(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < 2 || data[0] != 0x1f || data[1] != 0x8b {
		t.Fatalf("%s: %d bytes, not a gzipped pprof profile", path, len(data))
	}
}

func TestProfileFlagsWriteProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := dir+"/cpu.pprof", dir+"/mem.pprof"
	var out bytes.Buffer
	if err := run(tinyArgs("-json", dir+"/sweep.json", "-cpuprofile", cpu, "-memprofile", mem), &out); err != nil {
		t.Fatal(err)
	}
	requirePprof(t, cpu)
	requirePprof(t, mem)
	if _, err := os.Stat(dir + "/sweep.json"); err != nil {
		t.Fatalf("sweep JSON missing alongside profiles: %v", err)
	}
}

func TestProfileFlagsRejectUnwritablePaths(t *testing.T) {
	dir := t.TempDir()
	bad := dir + "/no-such-dir/x.pprof"
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"cpuprofile", tinyArgs("-cpuprofile", bad)},
		{"memprofile", tinyArgs("-memprofile", bad)},
		{"memprofile after cpu started", tinyArgs("-cpuprofile", dir+"/cpu.pprof", "-memprofile", bad)},
		{"same file for both", tinyArgs("-cpuprofile", dir+"/p.pprof", "-memprofile", dir+"/p.pprof")},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			if err := run(tc.args, &out); err == nil {
				t.Fatalf("args %v accepted", tc.args)
			}
			if out.Len() != 0 {
				t.Fatalf("benchmark work ran before profile validation:\n%s", out.String())
			}
		})
	}
	// The failed -memprofile case above started the CPU profile; a follow-up
	// run with a valid path must succeed, proving the cleanup stopped it.
	var out bytes.Buffer
	cpu := dir + "/cpu2.pprof"
	if err := run(tinyArgs("-cpuprofile", cpu), &out); err != nil {
		t.Fatalf("CPU profiling left running after a failed start: %v", err)
	}
	requirePprof(t, cpu)
}
