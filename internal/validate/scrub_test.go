package validate

import (
	"math/rand"
	"testing"
)

// TestScrubFieldFastPath pins ScrubField's printable-ASCII shortcut to the
// full scrub on random fields mixing ASCII, control bytes, BOMs, other
// UTF-8 and invalid bytes.
func TestScrubFieldFastPath(t *testing.T) {
	pieces := []string{"a", "7", "-", " ", "\t", "\x00", "\x01", "\x1f", "\x7f", "\uFEFF", "\xEF\xBB", "é", "\xff", " ", ":"}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		s := ""
		for n := rng.Intn(6); n > 0; n-- {
			s += pieces[rng.Intn(len(pieces))]
		}
		got, gotScrubbed := ScrubField(s)
		want, wantScrubbed := scrub(s)
		if got != want || gotScrubbed != wantScrubbed {
			t.Fatalf("ScrubField(%q) = %q, %v; full scrub gives %q, %v", s, got, gotScrubbed, want, wantScrubbed)
		}
	}
}
