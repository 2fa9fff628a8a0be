package simcache

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestAnalysisMemoizes(t *testing.T) {
	c := New()
	calls := 0
	compute := func() ([]byte, error) {
		calls++
		return []byte("A1 2 1\n30 1 1\n"), nil
	}
	for i := 0; i < 3; i++ {
		got, err := c.Analysis("k", compute)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != "A1 2 1\n30 1 1\n" {
			t.Fatalf("got %q", got)
		}
	}
	if calls != 1 {
		t.Fatalf("compute ran %d times, want 1", calls)
	}
	s := c.Snapshot()
	if s.AnalysisMisses != 1 || s.AnalysisHits != 2 {
		t.Fatalf("stats %+v, want 1 analysis miss / 2 hits", s)
	}
	// The same key in the other namespaces must not collide.
	if _, err := c.Fragment("k", func() (Fragment, error) { return Fragment{Loads: 1}, nil }); err != nil {
		t.Fatal(err)
	}
}

func TestAnalysisErrorsAreMemoizedButNotPersisted(t *testing.T) {
	dir := t.TempDir()
	c, err := NewDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	if _, err := c.Analysis("k", func() ([]byte, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("got %v", err)
	}
	if _, err := c.Analysis("k", func() ([]byte, error) { t.Fatal("recomputed"); return nil, nil }); !errors.Is(err, boom) {
		t.Fatalf("error not memoized: %v", err)
	}
	files, _ := os.ReadDir(dir)
	if len(files) != 0 {
		t.Fatalf("error persisted to disk: %v", files)
	}
}

func TestAnalysisDirBackendShares(t *testing.T) {
	dir := t.TempDir()
	c1, err := NewDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("A1 3 2\n600 20 1 1\n30 30 1 1\n")
	if _, err := c1.Analysis("key", func() ([]byte, error) { return payload, nil }); err != nil {
		t.Fatal(err)
	}
	c2, err := NewDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c2.Analysis("key", func() ([]byte, error) {
		t.Fatal("recomputed despite shared directory")
		return nil, nil
	})
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("got %q, %v", got, err)
	}
	if s := c2.Snapshot(); s.AnalysisDiskHits != 1 || s.AnalysisMisses != 0 {
		t.Fatalf("stats %+v, want 1 analysis disk hit", s)
	}
}

func TestAnalysisCorruptDiskIsAMiss(t *testing.T) {
	dir := t.TempDir()
	c1, err := NewDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("A1 2 1\n39 8 1\n")
	if _, err := c1.Analysis("key", func() ([]byte, error) { return payload, nil }); err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte without touching the envelope header: the
	// checksum catches it and the blob is a miss, not a wrong value.
	name := filepath.Join(dir, "a"+hashKey("key"))
	data, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-2] ^= 0x01
	if err := os.WriteFile(name, data, 0o644); err != nil {
		t.Fatal(err)
	}
	c2, err := NewDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	recomputed := false
	got, err := c2.Analysis("key", func() ([]byte, error) { recomputed = true; return payload, nil })
	if err != nil || !recomputed || !bytes.Equal(got, payload) {
		t.Fatalf("corrupt blob not treated as miss: recomputed=%v got=%q err=%v", recomputed, got, err)
	}
}

func TestAnalysisRemoteTier(t *testing.T) {
	_, srv := newBlobServer(t)

	payload := []byte("A1 2 1\n70 32 1\n")
	c1, err := NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c1.SetRemote(testRemote(srv.URL))
	if _, err := c1.Analysis("key", func() ([]byte, error) { return payload, nil }); err != nil {
		t.Fatal(err)
	}

	// A second host (fresh directory, same remote) recovers the blob over
	// the network and writes it back to its own disk tier.
	dir2 := t.TempDir()
	c2, err := NewDir(dir2)
	if err != nil {
		t.Fatal(err)
	}
	c2.SetRemote(testRemote(srv.URL))
	got, err := c2.Analysis("key", func() ([]byte, error) {
		t.Fatal("recomputed despite remote tier")
		return nil, nil
	})
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("got %q, %v", got, err)
	}
	if s := c2.Snapshot(); s.AnalysisRemoteHits != 1 {
		t.Fatalf("stats %+v, want 1 analysis remote hit", s)
	}
	if _, err := os.Stat(filepath.Join(dir2, "a"+hashKey("key"))); err != nil {
		t.Fatalf("remote hit not written back to disk: %v", err)
	}
}

func TestAnalysisHitCountsMemoLayer(t *testing.T) {
	c := New()
	c.AnalysisHit()
	c.AnalysisHit()
	if s := c.Snapshot(); s.AnalysisHits != 2 {
		t.Fatalf("stats %+v, want 2 analysis hits", s)
	}
}

func TestAnalysisBlobEnvelope(t *testing.T) {
	payload := []byte("A1 3 5\n1 2 3 4\n")
	blob := encodeAnalysisBlob(payload)
	got, ok := decodeAnalysisBlob(blob)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("round trip: ok=%v got=%q", ok, got)
	}
	if _, ok := decodeAnalysisBlob(blob[:len(blob)-1]); ok {
		t.Error("truncated blob accepted")
	}
	flipped := append([]byte(nil), blob...)
	flipped[len(flipped)-1] ^= 0x01
	if _, ok := decodeAnalysisBlob(flipped); ok {
		t.Error("checksum-violating blob accepted")
	}
	if _, ok := decodeAnalysisBlob(nil); ok {
		t.Error("empty blob accepted")
	}
	if _, ok := decodeAnalysisBlob([]byte("no newline header")); ok {
		t.Error("headerless blob accepted")
	}
	// Empty payloads are legal at this layer; the semantic decode above
	// rejects them if the owner requires content.
	if got, ok := decodeAnalysisBlob(encodeAnalysisBlob(nil)); !ok || len(got) != 0 {
		t.Error("empty payload envelope rejected")
	}
}

func TestBlobHandlerAnalysisKind(t *testing.T) {
	_, srv := newBlobServer(t)
	r := testRemote(srv.URL)
	hash := hashKey("analysis key")

	// Analysis blobs may exceed the two-int cap; well under their own.
	payload := []byte(strings.Repeat("12345 678 9 1\n", 100))
	blob := encodeAnalysisBlob(payload)
	if len(blob) <= maxValueBlobSize {
		t.Fatalf("test payload too small to prove the larger cap (%d bytes)", len(blob))
	}
	if err := r.put("a", hash, blob); err != nil {
		t.Fatal(err)
	}
	data, ok, err := r.get("a", hash, maxAnalysisBlobSize)
	if err != nil || !ok || !bytes.Equal(data, blob) {
		t.Fatalf("round trip: ok=%v err=%v", ok, err)
	}
	// A malformed analysis blob is rejected on PUT.
	if err := r.put("a", hashKey("other"), []byte("garbage")); err == nil {
		t.Error("malformed analysis blob accepted")
	}
	// The two-int kinds keep their tight cap.
	if err := r.put("f", hashKey("big"), blob); err == nil {
		t.Error("oversized fragment blob accepted")
	}
}
