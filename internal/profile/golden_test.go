package profile

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"gdsx/internal/ast"
	"gdsx/internal/ddg"
	"gdsx/internal/interp"
	"gdsx/internal/parser"
	"gdsx/internal/sema"
	"gdsx/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite testdata/golden from the current profiler")

// goldenProgram names one profiled source of the golden set.
type goldenProgram struct {
	file string // golden file name under testdata/golden
	src  string
}

// goldenPrograms returns every program the golden profiles cover: the
// eight Table 4 workloads at Test and ProfileScale, and both inputs of
// each adversarial, adaptive and multi-region train/expose pair.
func goldenPrograms() []goldenProgram {
	var out []goldenProgram
	name := func(parts ...string) string {
		return strings.NewReplacer(".", "_", "-", "_").Replace(strings.Join(parts, "_")) + ".txt"
	}
	for _, w := range workloads.All() {
		out = append(out,
			goldenProgram{name(w.Name, "test"), w.Source(workloads.Test)},
			goldenProgram{name(w.Name, "profile"), w.Source(workloads.ProfileScale)})
	}
	pairs := append(workloads.AdversarialAll(), workloads.AdaptiveAll()...)
	pairs = append(pairs, workloads.AdversarialStuck())
	for _, a := range pairs {
		out = append(out,
			goldenProgram{name(a.Name, "train"), a.Profile(workloads.Test)},
			goldenProgram{name(a.Name, "expose"), a.Expose(workloads.Test)})
	}
	return out
}

// profileGolden profiles every parallel loop of src and renders
// everything the profiler reports in a canonical text form: per loop
// its iteration count, the graph JSON (sorted edges with counts,
// sorted exposed lists), one line per executed site with its origins
// sorted by name, and one line per Definition 5 class.
func profileGolden(t *testing.T, src string) []byte {
	t.Helper()
	prog, err := parser.Parse("golden.c", src)
	if err != nil {
		t.Fatal(err)
	}
	info, err := sema.Check(prog)
	if err != nil {
		t.Fatal(err)
	}
	var loops []int
	for id, l := range info.Loops {
		if l.Par != ast.Sequential {
			loops = append(loops, id)
		}
	}
	sort.Ints(loops)
	var b bytes.Buffer
	for _, id := range loops {
		res, err := Loop(prog, info, id, interp.Options{})
		if err != nil {
			t.Fatalf("loop %d: %v", id, err)
		}
		g, err := json.Marshal(res.Graph)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "loop %d iterations %d\ngraph %s\n", id, res.Iterations, g)
		var sites []int
		for site := range res.Touched {
			sites = append(sites, site)
		}
		sort.Ints(sites)
		for _, site := range sites {
			var names []string
			for o := range res.Touched[site] {
				names = append(names, o.String())
			}
			sort.Strings(names)
			fmt.Fprintf(&b, "touched %d: %s\n", site, strings.Join(names, ", "))
		}
		for _, c := range ddg.Classify(res.Graph, ddg.DefaultOptions()).Classes {
			cj, err := json.Marshal(c)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, "class %s\n", cj)
		}
	}
	return b.Bytes()
}

// TestGoldenProfiles pins the profiler's complete output on every
// parallel loop of the golden programs byte for byte. Regenerate with
// `go test ./internal/profile -run TestGoldenProfiles -update` only
// when a change to the profile is intended.
func TestGoldenProfiles(t *testing.T) {
	for _, gp := range goldenPrograms() {
		t.Run(strings.TrimSuffix(gp.file, ".txt"), func(t *testing.T) {
			got := profileGolden(t, gp.src)
			path := filepath.Join("testdata", "golden", gp.file)
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("profile differs from %s; first difference near byte %d", path, firstDiff(got, want))
			}
		})
	}
}

func firstDiff(a, b []byte) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}
