// Content-addressing for the front-end: a fingerprint that names an
// analysis by everything it reads, and a versioned encoding that lets the
// result live in a store (internal/simcache kind "a") and be revalidated
// on the way back in.
//
// The encoding deliberately carries only the per-group distinct-element
// profiles — the one part of the analysis that costs anything to compute.
// Reuse levels, ν, benefits, and the data-flow graph are re-derived from
// the kernel at decode time, so a blob can never smuggle in a summary that
// is inconsistent with the nest it claims to describe: a stale or corrupt
// blob fails the shape and envelope checks and falls back to a fresh
// analysis. A profile edited within the envelope decodes as written —
// blob writers are trusted, not authenticated (DESIGN.md §11, §13).
package hls

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/kernels"
	"repro/internal/reuse"
)

// KernelFingerprint renders everything the front-end analysis reads into a
// canonical string: loop bounds and steps by depth, and per reference
// group (in first-use order) the read/write counts, array dimensions, and
// flattened-index coefficients by loop depth. Loop variable and array
// names are deliberately absent — coefficients are keyed by depth, so two
// kernels that differ only by renaming share one analysis. The version
// prefix makes any future change to what Analyze reads a clean cache miss.
//
//repro:nohash Kernel.Name — identity label only; never read by Analyze's math
//repro:nohash Kernel.Description — documentation only
//repro:nohash Kernel.Rmax — a budget for allocation, applied after analysis
func KernelFingerprint(k kernels.Kernel) string {
	loops := k.Nest.Loops
	groups := k.Nest.RefGroups()
	n := 8 + 16*len(loops) // the prefix, then lo:hi:step; per loop
	for _, g := range groups {
		n += 12 + len(g.Ref.Index())*(12+4*len(loops))
	}
	b := make([]byte, 0, n)
	b = append(b, "fe1|"...)
	for _, l := range loops {
		b = strconv.AppendInt(b, int64(l.Lo), 10)
		b = append(b, ':')
		b = strconv.AppendInt(b, int64(l.Hi), 10)
		b = append(b, ':')
		b = strconv.AppendInt(b, int64(l.Step), 10)
		b = append(b, ';')
	}
	b = append(b, '|')
	for _, g := range groups {
		r := g.Ref
		b = append(b, 'r')
		b = strconv.AppendInt(b, int64(g.Reads), 10)
		b = append(b, ",w"...)
		b = strconv.AppendInt(b, int64(g.Writes), 10)
		for dim, ix := range r.Index() {
			b = append(b, '@')
			b = strconv.AppendInt(b, int64(r.Array.Dims[dim]), 10)
			b = append(b, '[')
			b = strconv.AppendInt(b, int64(ix.Const), 10)
			for _, l := range loops {
				b = append(b, ',')
				b = strconv.AppendInt(b, int64(ix.Coeff(l.Var)), 10)
			}
			b = append(b, ']')
		}
		b = append(b, ';')
	}
	return string(b)
}

// Fingerprint returns the kernel fingerprint of the analysis, memoized.
// It is the content address the analysis cache stores this Analysis under.
//
//repro:nohash Analysis.Infos — derived: re-computed from the nest at decode, never identity
//repro:nohash Analysis.Graph — derived: rebuilt from the nest at decode, never identity
//repro:nohash Analysis.kernelStats — derived: recomputed from the nest at decode, never identity
func (an *Analysis) Fingerprint() string {
	an.fpOnce.Do(func() { an.fp = KernelFingerprint(an.Kernel) })
	return an.fp
}

// analysisBlobVersion prefixes every encoded analysis; bump it whenever
// the payload layout or its semantics change, so stale blobs in shared
// stores miss instead of decoding wrong.
const analysisBlobVersion = "A1"

// Encode renders the storable part of the analysis: version, nest depth,
// group count, then one line of distinct-element counts per reference
// group in first-use order. The output is deterministic, so shards, serve
// requests, and fleet subprocesses that analyze the same kernel write
// byte-identical blobs.
func (an *Analysis) Encode() []byte {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %d %d\n", analysisBlobVersion, an.Kernel.Nest.Depth(), len(an.Infos))
	for _, inf := range an.Infos {
		for i, d := range inf.Distinct {
			if i > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%d", d)
		}
		b.WriteByte('\n')
	}
	return []byte(b.String())
}

// DecodeAnalysis rebuilds an Analysis for k from an encoded blob,
// revalidating it against the kernel on the way: the version, depth, and
// group count must match, and every distinct profile must satisfy the
// per-level envelope reuse.FromDistinct enforces. Any mismatch is an
// error — the caller treats it as a cache miss and re-analyzes.
func DecodeAnalysis(k kernels.Kernel, data []byte) (*Analysis, error) {
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	var version string
	var depth, groups int
	if _, err := fmt.Sscanf(lines[0], "%s %d %d", &version, &depth, &groups); err != nil {
		return nil, fmt.Errorf("hls: %s: malformed analysis blob header: %w", k.Name, err)
	}
	if version != analysisBlobVersion {
		return nil, fmt.Errorf("hls: %s: analysis blob version %q, want %q", k.Name, version, analysisBlobVersion)
	}
	if depth != k.Nest.Depth() {
		return nil, fmt.Errorf("hls: %s: analysis blob depth %d, nest depth %d", k.Name, depth, k.Nest.Depth())
	}
	if groups != len(lines)-1 {
		return nil, fmt.Errorf("hls: %s: analysis blob claims %d groups, carries %d", k.Name, groups, len(lines)-1)
	}
	profile := make([][]int, 0, groups)
	for _, line := range lines[1:] {
		fields := strings.Fields(line)
		if len(fields) != depth+1 {
			return nil, fmt.Errorf("hls: %s: analysis blob row %q, want %d counts", k.Name, line, depth+1)
		}
		dist := make([]int, len(fields))
		for i, f := range fields {
			if _, err := fmt.Sscanf(f, "%d", &dist[i]); err != nil {
				return nil, fmt.Errorf("hls: %s: analysis blob count %q: %w", k.Name, f, err)
			}
		}
		profile = append(profile, dist)
	}
	infos, err := reuse.FromDistinct(k.Nest, profile)
	if err != nil {
		return nil, fmt.Errorf("hls: %s: %w", k.Name, err)
	}
	return newAnalysis(k, infos)
}
