// Command gpack is the framework's package-manager front end (the Spack
// role in the paper): it parses specs, concretizes them against a
// system's environment, and installs them into the build tree.
//
//	gpack spec "babelstream%gcc@9.2.0 model=omp"
//	gpack concretize --system archer2 "hpgmg%gcc"
//	gpack install --system csd3 "hpcg variant=matrix-free"
//	gpack list
//	gpack providers mpi
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/buildsys"
	"repro/internal/concretize"
	"repro/internal/env"
	"repro/internal/repo"
	"repro/internal/spec"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "gpack:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		usage()
		return fmt.Errorf("no command")
	}
	switch args[0] {
	case "spec":
		return cmdSpec(args[1:])
	case "concretize":
		return cmdConcretize(args[1:], false)
	case "install":
		return cmdConcretize(args[1:], true)
	case "list":
		return cmdList()
	case "providers":
		return cmdProviders(args[1:])
	case "env":
		return cmdEnv(args[1:])
	case "help", "-h", "--help":
		usage()
		return nil
	default:
		usage()
		return fmt.Errorf("unknown command %q", args[0])
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage:
  gpack spec <spec>                      parse and print a spec
  gpack concretize [flags] <spec>        resolve a spec against a system
  gpack install [flags] <spec>           concretize and install
  gpack list                             list known recipes
  gpack providers <virtual>              list providers of a virtual package
  gpack env <system>                     export a system's config as YAML

flags for concretize/install:
  --system NAME   system whose environment to use (default local)
  --arch ARCH     target architecture (x86_64, aarch64)
  --tree DIR      install tree (default ./install)
  --trace         print the decision trace
`)
}

func cmdSpec(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("spec takes exactly one argument")
	}
	s, err := spec.Parse(args[0])
	if err != nil {
		return err
	}
	fmt.Println(s)
	return nil
}

func cmdConcretize(args []string, install bool) error {
	fs := flag.NewFlagSet("concretize", flag.ContinueOnError)
	system := fs.String("system", "local", "system environment")
	arch := fs.String("arch", "x86_64", "target architecture")
	tree := fs.String("tree", "install", "install tree")
	trace := fs.Bool("trace", false, "print the decision trace")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("expected exactly one spec argument")
	}
	abstract, err := spec.Parse(fs.Arg(0))
	if err != nil {
		return err
	}
	builtin := repo.Builtin()
	cfg := env.UKRegistry().ForSystem(*system)
	res, err := concretize.Concretize(abstract, cfg.ConcretizeOptions(builtin, *arch))
	if err != nil {
		return err
	}
	if *trace {
		for _, s := range res.Steps {
			fmt.Println("  " + s)
		}
	}
	fmt.Println(res.Spec)
	fmt.Println("hash:", res.Spec.DAGHash())
	if !install {
		return nil
	}
	builder := buildsys.NewBuilder(*tree, builtin)
	records, err := builder.Install(res.Spec)
	if err != nil {
		return err
	}
	for _, r := range records {
		elapsed := ""
		if !r.Cached && !r.External {
			elapsed = fmt.Sprintf("  (%.1fs)", r.Elapsed.Seconds())
		}
		fmt.Printf("  %-9s %-40s %s%s\n", r.State(), r.SpecText, r.Prefix, elapsed)
	}
	fmt.Printf("%s; simulated build time %.1fs\n",
		buildsys.Summary(records), buildsys.TotalBuildTime(records).Seconds())
	return nil
}

func cmdList() error {
	r := repo.Builtin()
	for _, name := range r.Names() {
		p, err := r.Get(name)
		if err != nil {
			return err
		}
		fmt.Printf("%-18s %s\n", name, p.Description)
	}
	return nil
}

// cmdEnv prints a builtin system configuration as YAML, for sharing and
// adapting to new systems.
func cmdEnv(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("env takes exactly one system name")
	}
	reg := env.UKRegistry()
	if !reg.Known(args[0]) {
		return fmt.Errorf("no configuration for system %q (known: %v)", args[0], reg.Names())
	}
	fmt.Print(reg.ForSystem(args[0]).YAML())
	return nil
}

func cmdProviders(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("providers takes exactly one virtual package name")
	}
	r := repo.Builtin()
	providers := r.Providers(args[0])
	if len(providers) == 0 {
		return fmt.Errorf("no providers for %q", args[0])
	}
	for _, p := range providers {
		fmt.Println(p)
	}
	return nil
}
