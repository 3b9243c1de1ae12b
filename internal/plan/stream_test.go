package plan

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/graph"
)

// fingerprintMaterialised is Fingerprint as it was before streaming: the
// whole encoding built, then hashed.
func fingerprintMaterialised(g *graph.DAG, opts []byte) (string, int) {
	e := &encoder{}
	e.str(fingerprintDomain)
	encodeDAG(e, g)
	e.u64(uint64(len(opts)))
	e.raw(opts)
	sum := sha256.Sum256(e.b)
	return hex.EncodeToString(sum[:]), len(e.b)
}

// TestFingerprintStreamed: streaming the encoding through the window hashes
// the very bytes the materialised encoding holds, on graphs whose encoding
// spans many windows and on graphs smaller than one.
func TestFingerprintStreamed(t *testing.T) {
	spanned := 0
	for _, sc := range graph.Scenarios() {
		for _, size := range []int{8, 300, 4000} {
			g, err := sc.Build(5, size)
			if err != nil {
				t.Fatal(err)
			}
			for _, opts := range [][]byte{nil, []byte("procs=4,heuristic=mpo")} {
				want, n := fingerprintMaterialised(g, opts)
				if got := Fingerprint(g, opts); got != want {
					t.Fatalf("%s size %d: streamed %s, materialised %s (%d bytes)", sc.Name, size, got, want, n)
				}
				if n > 2*streamWindow {
					spanned++
				}
			}
		}
	}
	if spanned == 0 {
		t.Fatal("no graph's encoding spans more than two windows; the test proves nothing")
	}
}
