package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"strings"
	"testing"
)

// goldenManifest lists, one per line, "<sha-256>  <vodbench arguments>" for
// every output whose bytes are pinned. `make golden-update` is the only
// thing that writes it: it re-runs each line's arguments and re-hashes.
const goldenManifest = "../../testdata/golden/MANIFEST"

// goldenDigest hashes an output the way the manifest does: without the
// "sweep: " summary lines, which carry wall and CPU times, and without
// everything from -stats' "== hot path:" block on, which carries wall time
// and a heap byte count that differ from run to run. The Makefile's
// golden-update recipe applies the same filter.
func goldenDigest(out []byte) string {
	h := sha256.New()
	for _, line := range bytes.SplitAfter(out, []byte("\n")) {
		if bytes.HasPrefix(line, []byte("== hot path:")) {
			break
		}
		if !bytes.HasPrefix(line, []byte("sweep: ")) {
			h.Write(line)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenManifest regenerates every pinned output through runTo and
// compares digests: "byte-identical to the previous binary" as a test. A
// change that moves one of them on purpose runs `make golden-update` and
// argues the diff in its PR.
func TestGoldenManifest(t *testing.T) {
	if raceEnabled {
		t.Skip("the outputs are identical under the race detector, only ten times slower")
	}
	f, err := os.Open(goldenManifest)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	lines := 0
	for sc := bufio.NewScanner(f); sc.Scan(); {
		want, args, ok := strings.Cut(sc.Text(), "  ")
		if !ok {
			t.Fatalf("malformed manifest line %q", sc.Text())
		}
		lines++
		t.Run(args, func(t *testing.T) {
			var buf bytes.Buffer
			if err := runTo(&buf, strings.Fields(args)); err != nil {
				t.Fatal(err)
			}
			if got := goldenDigest(buf.Bytes()); got != want {
				t.Fatalf("vodbench %s: output digest %s, manifest says %s", args, got, want)
			}
		})
	}
	if lines == 0 {
		t.Fatal("empty manifest")
	}
}
