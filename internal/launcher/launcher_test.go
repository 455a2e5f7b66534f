package launcher

import (
	"strings"
	"testing"
)

func TestSrunCommand(t *testing.T) {
	cmd := Srun{}.Command(Layout{NumTasks: 8, TasksPerNode: 2, CPUsPerTask: 8}, "./hpgmg-fv", []string{"7", "8"})
	for _, want := range []string{"srun", "--ntasks=8", "--ntasks-per-node=2", "--cpus-per-task=8", "--cpu-bind=cores", "./hpgmg-fv 7 8"} {
		if !strings.Contains(cmd, want) {
			t.Errorf("srun command missing %q: %s", want, cmd)
		}
	}
}

func TestMpirunCommand(t *testing.T) {
	cmd := Mpirun{}.Command(Layout{NumTasks: 40, TasksPerNode: 40, CPUsPerTask: 1}, "./xhpcg", nil)
	for _, want := range []string{"mpirun", "-np 40", "ppr:40:node:pe=1", "--bind-to core", "./xhpcg"} {
		if !strings.Contains(cmd, want) {
			t.Errorf("mpirun command missing %q: %s", want, cmd)
		}
	}
}

func TestAprunCommand(t *testing.T) {
	cmd := Aprun{}.Command(Layout{NumTasks: 64, TasksPerNode: 32, CPUsPerTask: 2}, "./babelstream", []string{"-s", "33554432"})
	for _, want := range []string{"aprun", "-n 64", "-N 32", "-d 2", "./babelstream -s 33554432"} {
		if !strings.Contains(cmd, want) {
			t.Errorf("aprun command missing %q: %s", want, cmd)
		}
	}
}

func TestLocalCommand(t *testing.T) {
	cmd := Local{}.Command(Layout{NumTasks: 1}, "./stream", nil)
	if cmd != "./stream" {
		t.Errorf("local command = %q", cmd)
	}
}

func TestFor(t *testing.T) {
	for _, name := range []string{"srun", "mpirun", "aprun", "local"} {
		l, err := For(name)
		if err != nil {
			t.Errorf("For(%q): %v", name, err)
			continue
		}
		if l.Name() != name {
			t.Errorf("For(%q).Name() = %q", name, l.Name())
		}
	}
	if _, err := For("flux"); err == nil {
		t.Error("unknown launcher accepted")
	}
}

// TestDefaultPacking: a layout with TasksPerNode 0 asks for the
// launcher's own packing (fill nodes by CPUs), so no launcher pins a
// per-node task count, and mpirun sets no mapping policy.
func TestDefaultPacking(t *testing.T) {
	l := Layout{NumTasks: 8, CPUsPerTask: 16}
	for _, c := range []struct {
		cmd    string
		pinned []string
	}{
		{Srun{}.Command(l, "./x", nil), []string{"--ntasks-per-node"}},
		{Mpirun{}.Command(l, "./x", nil), []string{"--map-by", "ppr:"}},
		{Aprun{}.Command(l, "./x", nil), []string{"-N "}},
	} {
		for _, p := range c.pinned {
			if strings.Contains(c.cmd, p) {
				t.Errorf("%q pins %q with TasksPerNode 0", c.cmd, p)
			}
		}
	}
	if cmd := (Srun{}).Command(l, "./x", nil); cmd != "srun --ntasks=8 --cpus-per-task=16 --cpu-bind=cores ./x" {
		t.Errorf("srun command = %q", cmd)
	}
}
