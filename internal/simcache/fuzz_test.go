package simcache

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzBlobCodecs feeds every input to every kind's codec and to the blob
// server. Properties, per kind:
//
//   - no input panics;
//   - an accepted blob's canonical form is a fixed point and decodes to the
//     same value as the blob;
//   - PUT accepts exactly the blobs the codec accepts (within the kind's
//     transfer cap), and GET then serves the canonical form.
//
// The seeds are real blobs from a stock sweep's -simcache-dir
// (testdata/*.blob) and truncated copies of them.
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
	c, err := NewDir(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	h, err := NewBlobHandler(c, nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkCodec(t, h, &c.frags, data)
		checkCodec(t, h, &c.classes, data)
		checkCodec(t, h, &c.analyses, data)
	})
}

func checkCodec[V any](t *testing.T, h http.Handler, k *kind[V], data []byte) {
	t.Helper()
	v, ok := k.decode(data)
	canon, cok := k.canonical(data)
	if ok != cok {
		t.Fatalf("%s: decode accepts=%v but canonical accepts=%v", k.name, ok, cok)
	}
	if ok {
		again, ok := k.canonical(canon)
		if !ok || !bytes.Equal(again, canon) {
			t.Fatalf("%s: canonical form %q is not a fixed point (%q, %v)", k.name, canon, again, ok)
		}
		if w, _ := k.decode(canon); !reflect.DeepEqual(w, v) {
			t.Fatalf("%s: canonical form decodes to %v, the blob to %v", k.name, w, v)
		}
	}

	path := blobPathPrefix + k.name + "/" + hashKey("fuzz")
	put := httptest.NewRecorder()
	h.ServeHTTP(put, httptest.NewRequest(http.MethodPut, path, bytes.NewReader(data)))
	if accepted, want := put.Code == http.StatusNoContent, ok && len(data) <= k.max; accepted != want {
		t.Fatalf("%s: PUT answered %d, codec accepts=%v (%d bytes, cap %d)", k.name, put.Code, ok, len(data), k.max)
	}
	if put.Code != http.StatusNoContent {
		return
	}
	get := httptest.NewRecorder()
	h.ServeHTTP(get, httptest.NewRequest(http.MethodGet, path, nil))
	if get.Code != http.StatusOK || !bytes.Equal(get.Body.Bytes(), canon) {
		t.Fatalf("%s: GET after PUT answered %d %q, want the canonical %q", k.name, get.Code, get.Body.Bytes(), canon)
	}
}
