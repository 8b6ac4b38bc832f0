package archive

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"air/internal/obs"
)

// marshalManifest is the manifest encoding writeManifest must reproduce:
// the whole catalog through json.MarshalIndent, plus a newline.
func marshalManifest(t *testing.T, m Manifest) []byte {
	t.Helper()
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(data, '\n')
}

// TestEncodeManifestMatchesMarshalIndent pins the streamed manifest to
// json.MarshalIndent byte for byte: nil and empty segment lists, 0…n
// segments, with and without sparse-index entries.
func TestEncodeManifestMatchesMarshalIndent(t *testing.T) {
	segment := func(n int, indexed bool) SegmentMeta {
		meta := SegmentMeta{
			Name: segmentName(n), Records: uint64(40 * n), SeqStart: uint64(40*(n-1) + 1),
			MinTick: int64(100 * n), MaxTick: int64(100*n + 99), Bytes: int64(4096 * n),
		}
		if indexed {
			for i := 0; i < n; i++ {
				meta.Index = append(meta.Index, IndexEntry{Seq: meta.SeqStart + uint64(i), Tick: int64(i), Offset: int64(64 * i)})
			}
		}
		return meta
	}
	cases := []struct {
		name string
		m    Manifest
	}{
		{"nil segments", Manifest{Version: manifestVersion}},
		{"empty segments", Manifest{Version: manifestVersion, Segments: []SegmentMeta{}}},
	}
	for n := 1; n <= 4; n++ {
		for _, indexed := range []bool{false, true} {
			m := Manifest{Version: manifestVersion, Records: uint64(1000 * n)}
			for i := 1; i <= n; i++ {
				m.Segments = append(m.Segments, segment(i, indexed && i%2 == 1))
			}
			cases = append(cases, struct {
				name string
				m    Manifest
			}{fmt.Sprintf("%d segments, indexed=%v", n, indexed), m})
		}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var catalog bytes.Buffer
			for i, seg := range tc.m.Segments {
				if err := renderEntry(&catalog, i, seg); err != nil {
					t.Fatal(err)
				}
			}
			var got bytes.Buffer
			if err := encodeManifest(&got, tc.m, catalog.Bytes()); err != nil {
				t.Fatal(err)
			}
			if want := marshalManifest(t, tc.m); !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("streamed manifest differs from MarshalIndent:\n got  %q\n want %q", got.Bytes(), want)
			}
		})
	}
}

// TestSealedManifestMatchesMarshalIndent checks the manifest on disk after
// every seal — including the first seals after reopening, which render the
// entries of the segments Open loaded — against MarshalIndent of the
// catalog read back.
func TestSealedManifestMatchesMarshalIndent(t *testing.T) {
	dir := t.TempDir()
	opts := Options{SegmentRecords: 16, IndexEvery: 5}
	var tk int64
	emit := func(s *Sink, n int) {
		for i := 0; i < n; i++ {
			tk++
			s.Emit(obs.Record{Time: tk, Kind: "WINDOW_ACTIVATION", Partition: "P1"}.Event())
		}
	}
	check := func(when string) {
		t.Helper()
		got, err := os.ReadFile(filepath.Join(dir, manifestName))
		if err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		m, err := readManifest(dir)
		if err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		if want := marshalManifest(t, m); !bytes.Equal(got, want) {
			t.Fatalf("%s: manifest on disk differs from MarshalIndent:\n got  %q\n want %q", when, got, want)
		}
	}
	for round := 0; round < 3; round++ {
		s, err := Open(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		emit(s, 16*3+7)
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("round %d", round))
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("round %d after Close", round))
	}
	m, err := readManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Segments) < 6 {
		t.Fatalf("only %d sealed segments; the test wants seals across reopens", len(m.Segments))
	}
}
