package hostprof

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

func TestProfilesWritten(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.out"), filepath.Join(dir, "mem.out")
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	prof := Register(fs)
	if err := fs.Parse([]string{"-cpuprofile=" + cpu, "-memprofile=" + mem}); err != nil {
		t.Fatal(err)
	}
	stop, err := prof.Start()
	if err != nil {
		t.Fatal(err)
	}
	stop()
	for _, name := range []string{cpu, mem} {
		if st, err := os.Stat(name); err != nil || st.Size() == 0 {
			t.Errorf("%s: not written (%v)", name, err)
		}
	}
}

func TestUnwritableCPUProfileRefused(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	prof := Register(fs)
	if err := fs.Parse([]string{"-cpuprofile=" + filepath.Join(t.TempDir(), "missing", "cpu.out")}); err != nil {
		t.Fatal(err)
	}
	if _, err := prof.Start(); err == nil {
		t.Fatal("Start accepted a CPU profile path it cannot create")
	}
}
