package profiling

import (
	"os"
	"path/filepath"
	"testing"
)

// TestStartWritesBothProfiles runs Start with both paths and checks that
// stop leaves two non-empty profiles (a CPU profile without samples still
// has its header); with neither path, Start and stop succeed.
func TestStartWritesBothProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	stop, err := Start(cpu, mem)
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		if st, err := os.Stat(p); err != nil || st.Size() == 0 {
			t.Errorf("%s: want a non-empty profile (stat %v)", p, err)
		}
	}

	stop, err = Start("", "")
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
}

// TestStartReportsUnwritablePath checks that a CPU profile path that cannot
// be created is an error naming the flag, and a heap profile path one that
// stop returns.
func TestStartReportsUnwritablePath(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "missing", "p.pprof")
	if _, err := Start(bad, ""); err == nil {
		t.Error("Start accepted an uncreatable -cpuprofile path")
	}
	stop, err := Start("", bad)
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err == nil {
		t.Error("stop accepted an uncreatable -memprofile path")
	}
}
