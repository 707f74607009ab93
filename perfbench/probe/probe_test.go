package probe

import (
	"go/build"
	"os"
	"strings"
	"testing"
	"time"
)

// TestImportsOnlyTheStandardLibrary guards the probe against depending
// on the program it normalises: a probe that shared code with the
// program would speed up and slow down with it.
func TestImportsOnlyTheStandardLibrary(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := build.ImportDir(wd, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkg.Imports) == 0 {
		t.Fatal("found no imports; the probe's source was not read")
	}
	for _, path := range pkg.Imports {
		if path == "bloomlang" || strings.HasPrefix(path, "bloomlang/") {
			t.Errorf("probe imports %s", path)
			continue
		}
		dep, err := build.Import(path, wd, build.FindOnly)
		if err != nil {
			t.Errorf("import %s: %v", path, err)
			continue
		}
		if !dep.Goroot {
			t.Errorf("probe imports %s from outside the standard library", path)
		}
	}
}

func TestPassReproducesTheFrozenChecksum(t *testing.T) {
	p := New()
	for i := 0; i < 3; i++ {
		if got := p.Pass(); got != Checksum {
			t.Fatalf("pass %d counted %d matches, frozen checksum is %d", i, got, Checksum)
		}
	}
	if got := New().Pass(); got != Checksum {
		t.Fatalf("a second probe counted %d matches, want %d", got, Checksum)
	}
}

func TestPassDoesNotAllocate(t *testing.T) {
	p := New()
	if a := testing.AllocsPerRun(5, func() { p.Pass() }); a != 0 {
		t.Fatalf("Pass allocates %g times per run", a)
	}
}

func TestRunReportsItsOwnCPU(t *testing.T) {
	s, err := New().Run(2, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if s.Ops <= 0 || s.Ops%OpsPerPass != 0 {
		t.Fatalf("ops %d is not a positive whole number of passes", s.Ops)
	}
	if s.ProbeCPU <= 0 || s.ProcCPU < s.ProbeCPU/2 {
		t.Fatalf("probe CPU %v, process CPU %v", s.ProbeCPU, s.ProcCPU)
	}
}
