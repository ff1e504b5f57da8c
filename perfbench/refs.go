package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"gdsx"
)

// refStore hands out reference outputs. A program's reference is the
// output of its untransformed source on the tree-walking engine with
// one thread: an engine and a program the expansion under test never
// touches. Tree-walking runs of the bench-scale inputs take about half
// a minute in total, so references are cached on disk under the build
// directory, keyed by the SHA-256 of the source; a fresh checkout
// computes them once.
type refStore struct {
	dir string
	mu  sync.Mutex
	m   map[string]string
}

func newRefStore(dir string) *refStore {
	return &refStore{dir: dir, m: map[string]string{}}
}

func srcKey(src string) string {
	h := sha256.Sum256([]byte(src))
	return hex.EncodeToString(h[:])
}

// get returns the reference output of src, computing it on first use.
func (r *refStore) get(name, src string) (string, error) {
	key := srcKey(src)
	r.mu.Lock()
	out, ok := r.m[key]
	r.mu.Unlock()
	if ok {
		return out, nil
	}
	path := filepath.Join(r.dir, key+".out")
	if b, err := os.ReadFile(path); err == nil {
		r.put(src, string(b))
		return string(b), nil
	}
	p, err := gdsx.Compile(name+".c", src)
	if err != nil {
		return "", fmt.Errorf("reference %s: %w", name, err)
	}
	res, err := p.Run(gdsx.RunOptions{Threads: 1, Engine: gdsx.EngineTree})
	if err != nil {
		return "", fmt.Errorf("reference %s: %w", name, err)
	}
	if err := os.MkdirAll(r.dir, 0o755); err == nil {
		tmp := path + ".tmp"
		if os.WriteFile(tmp, []byte(res.Output), 0o644) == nil {
			_ = os.Rename(tmp, path) // a failed cache write only costs a recomputation
		}
	}
	r.put(src, res.Output)
	return res.Output, nil
}

// put records (or, in the self-test, overrides) the reference of src.
func (r *refStore) put(src, out string) {
	r.mu.Lock()
	r.m[srcKey(src)] = out
	r.mu.Unlock()
}

// kernelRef is the closed-form output of the serve kernel: the sum over
// i < n and j < kernelInner of i*j, printed with a newline.
func kernelRef(n int64) string {
	return fmt.Sprintf("%d\n", (kernelInner*(kernelInner-1)/2)*(n*(n-1)/2))
}
