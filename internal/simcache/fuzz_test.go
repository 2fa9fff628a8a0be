package simcache

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzBlobCodecs feeds every input to the fragment file codec, the one
// decoder of outside bytes left in the package, and through it to a
// directory-backed cache. Properties:
//
//   - no input panics;
//   - an accepted file's canonical form (its value re-encoded) is a fixed
//     point and decodes to the same value as the file;
//   - planted as a key's fragment file, the input is a disk hit with the
//     decoded value exactly when the codec accepts it, and a miss that
//     computes otherwise.
//
// The seeds are real files from a stock sweep's simcache directory
// (testdata/*.blob) and truncated copies of them. class.blob is one of the
// class kind, which reads no files since DESIGN.md §22, and analysis.blob
// one of the retired kind "a" (the a1 envelope, §18): older builds left
// such files in shared directories, so the codec is fed them too.
func FuzzBlobCodecs(f *testing.F) {
	for _, name := range []string{"fragment.blob", "class.blob", "analysis.blob"} {
		data, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		for n := 0; n < len(data); n += max(1, len(data)/8) {
			f.Add(data[:n])
		}
		f.Add(data)
	}
	dir := f.TempDir()
	file := filepath.Join(dir, "f"+hashKey("fuzz"))
	computed := Fragment{Loads: 7, Stores: 7}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := NewDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		k := &c.frags
		v, ok := k.decode(data)
		if ok {
			canon := k.encode(v)
			again, aok := k.decode(canon)
			if !aok || again != v || !bytes.Equal(k.encode(again), canon) {
				t.Fatalf("canonical form %q of %v is not a fixed point (%v, %v)", canon, v, again, aok)
			}
		}

		if err := os.WriteFile(file, data, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := c.Fragment("fuzz", func() (Fragment, error) { return computed, nil })
		if err != nil {
			t.Fatal(err)
		}
		want, hits := computed, int64(0)
		if ok {
			want, hits = v, 1
		}
		if s := c.Snapshot(); got != want || s.EntryDiskHits != hits || s.EntryDiskHits+s.EntryMisses != 1 {
			t.Fatalf("file %q read %v with stats %+v, want %v and %d disk hits (codec accepts=%v)", data, got, s, want, hits, ok)
		}
	})
}
