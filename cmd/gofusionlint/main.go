// Command gofusionlint runs the engine's custom static analyzers
// (internal/analysis/...) over gofusion packages. It speaks two
// protocols:
//
//   - As a vet tool: `go vet -vettool=$(command -v gofusionlint) ./...`.
//     The go command probes the tool with -V=full (version stamp for the
//     build cache) and -flags (JSON flag inventory), then invokes it once
//     per package with a vet.cfg JSON file naming the sources, the import
//     map, and the export data of every dependency. Diagnostics go to
//     stderr as file:line:col: messages; a non-zero exit marks findings.
//
//   - Standalone: `gofusionlint ./...` loads packages itself via
//     `go list -export` and runs the same analyzers. Useful without the
//     vet harness (editors, make lint on a subset).
//
// Individual analyzers can be disabled with -<name>=false in either mode.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"time"

	"gofusion/internal/analysis"
	"gofusion/internal/analysis/ctxflow"
	"gofusion/internal/analysis/load"
	"gofusion/internal/analysis/lockorder"
	"gofusion/internal/analysis/nolintaudit"
	"gofusion/internal/analysis/resbalance"
	"gofusion/internal/analysis/streamclose"
	"gofusion/internal/analysis/unsafealias"
)

var suite = []*analysis.Analyzer{
	streamclose.Analyzer,
	unsafealias.Analyzer,
	lockorder.Analyzer,
	resbalance.Analyzer,
	ctxflow.Analyzer,
	nolintaudit.Analyzer,
}

// vetConfig mirrors the JSON the go command writes for -vettool
// invocations (see cmd/go/internal/work's vetConfig).
type vetConfig struct {
	ID          string
	Compiler    string
	Dir         string
	ImportPath  string
	GoFiles     []string
	ImportMap   map[string]string
	PackageFile map[string]string
	Standard    map[string]bool

	PackageVetx map[string]string
	VetxOnly    bool
	VetxOutput  string

	GoVersion string

	SucceedOnTypecheckFailure bool
}

func main() {
	enabled := map[string]*bool{}
	for _, a := range suite {
		doc := a.Doc
		if i := strings.IndexByte(doc, '\n'); i >= 0 {
			doc = doc[:i]
		}
		enabled[a.Name] = flag.Bool(a.Name, true, doc)
	}
	versionFlag := flag.String("V", "", "print version and exit (-V=full for a build-cache stamp)")
	flagsFlag := flag.Bool("flags", false, "print the tool's flags as JSON and exit")
	flag.BoolVar(&debug, "debug", false, "print per-analyzer wall time to stderr")
	flag.Parse()

	if *versionFlag != "" {
		// The go command requires "<name> version <stamp>" from -V=full.
		fmt.Printf("gofusionlint version v1-%d-analyzers\n", len(suite))
		return
	}
	if *flagsFlag {
		printFlags()
		return
	}

	var active []*analysis.Analyzer
	for _, a := range suite {
		if *enabled[a.Name] {
			active = append(active, a)
		}
	}

	args := flag.Args()
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		os.Exit(runVet(active, args[0]))
	}
	if len(args) == 0 {
		args = []string{"./..."}
	}
	os.Exit(runStandalone(active, args))
}

// printFlags emits the flag inventory the go command uses to decide
// which vet command-line flags it may forward to the tool.
func printFlags() {
	type jsonFlag struct {
		Name  string
		Bool  bool
		Usage string
	}
	var out []jsonFlag
	flag.VisitAll(func(f *flag.Flag) {
		if f.Name == "V" || f.Name == "flags" || f.Name == "debug" {
			return
		}
		out = append(out, jsonFlag{Name: f.Name, Bool: true, Usage: f.Usage})
	})
	data, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Stdout.Write(data)
	fmt.Println()
}

// runVet analyzes the single package described by a go-vet config file.
func runVet(active []*analysis.Analyzer, cfgPath string) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "gofusionlint: parsing %s: %v\n", cfgPath, err)
		return 1
	}
	// The tool exports no facts, but the go command expects the vetx
	// output file to be produced when requested.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, []byte{}, 0o666); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	if cfg.VetxOnly {
		return 0
	}
	if cfg.Compiler != "gc" && cfg.Compiler != "" {
		return 0 // export data from other compilers is unreadable here
	}

	goFiles := make([]string, 0, len(cfg.GoFiles))
	for _, f := range cfg.GoFiles {
		if !filepath.IsAbs(f) {
			f = filepath.Join(cfg.Dir, f)
		}
		goFiles = append(goFiles, f)
	}
	fset := token.NewFileSet()
	pkg, err := load.Check(fset, cfg.ImportPath, goFiles, load.ExportImporter(fset, cfg.PackageFile, cfg.ImportMap))
	if err != nil {
		fmt.Fprintf(os.Stderr, "gofusionlint: %s: %v\n", cfg.ImportPath, err)
		return 1
	}
	if len(pkg.TypeErrors) > 0 {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		for _, e := range pkg.TypeErrors {
			fmt.Fprintln(os.Stderr, e)
		}
		return 1
	}
	return report(active, fset, pkg)
}

// runStandalone loads the packages matching the patterns and analyzes
// each in turn.
func runStandalone(active []*analysis.Analyzer, patterns []string) int {
	moduleDir, err := load.ModuleRoot(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	pkgs, err := load.Load(moduleDir, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	exit := 0
	for _, pkg := range pkgs {
		if len(pkg.TypeErrors) > 0 {
			for _, e := range pkg.TypeErrors {
				fmt.Fprintln(os.Stderr, e)
			}
			exit = 1
			continue
		}
		if code := report(active, pkg.Fset, pkg); code != 0 {
			exit = code
		}
	}
	return exit
}

// debug enables the per-analyzer wall-time breakdown on stderr.
var debug bool

func report(active []*analysis.Analyzer, fset *token.FileSet, pkg *load.Package) int {
	diags, timings, err := analysis.RunAnalyzersTimed(active, fset, pkg.Files, pkg.Types, pkg.Info)
	if debug {
		for _, tm := range timings {
			fmt.Fprintf(os.Stderr, "debug: %-16s %10v  %s\n", tm.Name, tm.Elapsed.Round(time.Microsecond), pkg.ImportPath)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s: %s\n", fset.Position(d.Pos), d.Message)
	}
	if len(diags) > 0 {
		return 2
	}
	return 0
}
