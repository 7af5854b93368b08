package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"strings"
	"testing"
)

// mutate returns a copy of base with a few scattered byte edits and an
// optional length change — the shape of two snapshots sharing a warm
// prefix.
func mutate(base []byte, rng *rand.Rand, edits int, grow int) []byte {
	out := append([]byte(nil), base...)
	for i := 0; i < edits && len(out) > 0; i++ {
		out[rng.Intn(len(out))] ^= byte(1 + rng.Intn(255))
	}
	for i := 0; i < grow; i++ {
		out = append(out, byte(rng.Intn(256)))
	}
	return out
}

// damageTargetHash returns a copy of frame with one bit of its pinned
// target hash flipped and the envelope hash recomputed, so the damage gets
// past the envelope check and only the target pin can catch it.
func damageTargetHash(frame []byte) []byte {
	const envOff, targetOff = 4 + 2, 4 + 2 + 8 + 8
	out := append([]byte(nil), frame...)
	out[targetOff] ^= 1
	binary.LittleEndian.PutUint64(out[envOff:], HashBytes(out[envOff+8:]))
	return out
}

func TestDeltaRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	base := make([]byte, 1<<16)
	rng.Read(base)

	cases := []struct {
		name   string
		target []byte
	}{
		{"identical", append([]byte(nil), base...)},
		{"sparse-edits", mutate(base, rng, 40, 0)},
		{"grown-tail", mutate(base, rng, 8, 512)},
		{"truncated-target", base[:len(base)-777]},
		{"empty-target", nil},
		{"empty-base-target", append([]byte(nil), base[:100]...)},
		{"unrelated", func() []byte { b := make([]byte, 1000); rng.Read(b); return b }()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := base
			if tc.name == "empty-base-target" {
				b = nil
			}
			d := EncodeDelta(b, tc.target)
			// The frame pins both endpoints: a different base is refused as
			// ErrDeltaBase, a damaged target hash as a failed decode.
			if _, err := DecodeDelta(append(append([]byte(nil), b...), 0), d); !errors.Is(err, ErrDeltaBase) {
				t.Fatalf("DecodeDelta against a different base = %v, want ErrDeltaBase", err)
			}
			if _, err := DecodeDelta(b, damageTargetHash(d)); err == nil || !strings.Contains(err.Error(), "reconstructed target") {
				t.Fatalf("DecodeDelta with a damaged target hash = %v, want the target-pin error", err)
			}
			got, err := DecodeDelta(b, d)
			if err != nil {
				t.Fatalf("DecodeDelta: %v", err)
			}
			if !bytes.Equal(got, tc.target) {
				t.Fatalf("round trip diverged: got %d bytes, want %d", len(got), len(tc.target))
			}
		})
	}
}

func TestDeltaSparseEditsAreSmall(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	base := make([]byte, 1<<20)
	rng.Read(base)
	target := mutate(base, rng, 30, 0)
	d := EncodeDelta(base, target)
	if len(d) >= len(target)/100 {
		t.Fatalf("30 scattered edits over 1 MiB encoded to %d bytes; want well under 1%% of %d", len(d), len(target))
	}
}

func TestDeltaRejectsWrongBase(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	base := make([]byte, 4096)
	rng.Read(base)
	target := mutate(base, rng, 10, 0)
	d := EncodeDelta(base, target)

	wrong := append([]byte(nil), base...)
	wrong[100] ^= 1
	if _, err := DecodeDelta(wrong, d); err == nil {
		t.Fatal("decode accepted a mutated base")
	}
	if _, err := DecodeDelta(nil, d); err == nil {
		t.Fatal("decode accepted an empty base")
	}
}

func TestDeltaRejectsCorruptAndTruncatedFrames(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	base := make([]byte, 8192)
	rng.Read(base)
	target := mutate(base, rng, 25, 64)
	d := EncodeDelta(base, target)

	// Every truncation must be rejected, never misread.
	for n := 0; n < len(d); n += 7 {
		if _, err := DecodeDelta(base, d[:n]); err == nil {
			t.Fatalf("decode accepted a frame truncated to %d of %d bytes", n, len(d))
		}
	}
	// Every single-byte flip must be rejected.
	for i := 0; i < len(d); i += 11 {
		c := append([]byte(nil), d...)
		c[i] ^= 0x40
		if out, err := DecodeDelta(base, c); err == nil && !bytes.Equal(out, target) {
			t.Fatalf("flip at %d decoded to wrong bytes without error", i)
		}
	}
}

func TestDeltaAppendReusesBuffer(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	base := make([]byte, 1<<15)
	rng.Read(base)
	target := mutate(base, rng, 12, 0)

	buf := make([]byte, 0, 1<<16)
	d1 := AppendDelta(buf, base, target)
	if &d1[0] != &buf[:1][0] {
		t.Fatal("AppendDelta did not reuse the supplied buffer")
	}
	got, err := DecodeDelta(base, d1)
	if err != nil || !bytes.Equal(got, target) {
		t.Fatalf("pooled encode round trip failed: %v", err)
	}
}

func FuzzDeltaRoundTrip(f *testing.F) {
	f.Add([]byte("base bytes base bytes"), []byte("base bytes Xase bytes"), []byte{})
	f.Add([]byte{}, []byte{1, 2, 3}, []byte{0xff})
	f.Add(bytes.Repeat([]byte{0xaa}, 300), bytes.Repeat([]byte{0xaa}, 280), []byte{1, 2, 3, 4})
	f.Fuzz(func(t *testing.T, base, target, garbage []byte) {
		if len(base) > 1<<16 || len(target) > 1<<16 {
			return
		}
		d := EncodeDelta(base, target)
		got, err := DecodeDelta(base, d)
		if err != nil {
			t.Fatalf("decode of a fresh frame failed: %v", err)
		}
		if !bytes.Equal(got, target) {
			t.Fatalf("round trip diverged")
		}
		// Arbitrary bytes must never decode into something that claims
		// success with wrong output; errors are the only acceptable outcome
		// unless the mutation left the frame bit-identical in effect.
		if len(garbage) > 0 {
			c := append([]byte(nil), d...)
			for i, g := range garbage {
				c[(i*131+int(g))%len(c)] ^= g | 1
			}
			if out, err := DecodeDelta(base, c); err == nil && !bytes.Equal(out, target) {
				t.Fatalf("corrupted frame decoded to wrong bytes without error")
			}
			if _, err := DecodeDelta(base, garbage); err == nil && !bytes.Equal(garbage, d) {
				t.Fatalf("raw garbage decoded without error")
			}
		}
	})
}

// benchDeltaPair builds a 1 MiB base and a sparsely edited target, the
// documented shape of two warm snapshots sharing a training prefix.
func benchDeltaPair() (base, target []byte) {
	rng := rand.New(rand.NewSource(42))
	base = make([]byte, 1<<20)
	rng.Read(base)
	target = mutate(base, rng, 64, 0)
	return base, target
}

func BenchmarkDeltaEncode(b *testing.B) {
	base, target := benchDeltaPair()
	buf := EncodeDelta(base, target) // pre-size the reuse buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = AppendDelta(buf[:0], base, target)
	}
	_ = buf
}

func BenchmarkDeltaDecode(b *testing.B) {
	base, target := benchDeltaPair()
	d := EncodeDelta(base, target)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeDelta(base, d); err != nil {
			b.Fatal(err)
		}
	}
}
