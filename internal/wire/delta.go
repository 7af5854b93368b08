// Differential snapshot transport: a PFWD frame encodes one byte string
// (the target — in practice a PFSN-encoded snapshot) as a sparse set of
// XOR runs against another byte string the receiver already holds (the
// base). Snapshots that share a warm-training prefix differ in a handful of
// PHT counters, the PHR tail and a few cache sets, so the runs cover a few
// kilobytes of a ~1 MiB encoding; everything the codec cannot shrink (a
// target unrelated to its base) still round-trips, it just is not smaller,
// and callers fall back to shipping the full blob.
//
// Safety discipline mirrors the PFSN envelope: the frame is versioned,
// self-verifying via an FNV-1a hash over its own payload, and pins both
// endpoints — DecodeDelta refuses a base whose bytes do not hash to the
// frame's baseHash (applying a delta to the wrong base would otherwise
// reconstruct garbage that only the next layer's hash could catch) and
// refuses an output that does not hash to the frame's targetHash. A torn,
// bit-flipped or mis-based frame is an error, never bytes.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Frame constants. Bump deltaVersion on any layout change; decoders reject
// other versions, like every other envelope in the tree.
const (
	deltaMagic   = "PFWD" // PathFinder Wire Delta
	deltaVersion = 1

	// deltaGapCoalesce is the largest run of equal bytes absorbed into a
	// surrounding XOR run: below this, one fused run is smaller than two
	// runs plus a fresh 8-byte header.
	deltaGapCoalesce = 16

	// deltaHeaderLen is the fixed frame prefix: magic, version, envelope
	// hash, base hash, target hash, target length, run count.
	deltaHeaderLen = 4 + 2 + 8 + 8 + 8 + 4 + 4

	// maxDeltaTarget bounds the decoded output; it matches the snapshot
	// store's per-entry ceiling so corrupt frames cannot drive huge
	// allocations.
	maxDeltaTarget = 64 << 20
)

// ErrDeltaBase is returned by DecodeDelta when the supplied base does not
// hash to the frame's pinned base hash — the caller holds different bytes
// than the encoder diffed against.
var ErrDeltaBase = errors.New("wire: delta base hash mismatch")

// HashBytes folds b FNV-1a style over 64-bit words (trailing bytes fold
// individually). The word grouping makes it ~8x faster than the byte-wise
// fold on megabyte snapshots, which matters because the delta codec hashes
// base, target and frame on every encode and decode. The value differs from
// a byte-wise FNV-1a; it is only ever compared against itself — the PFWD
// frame pins it for base, target and envelope.
func HashBytes(b []byte) uint64 {
	h := uint64(0xcbf29ce484222325)
	for len(b) >= 8 {
		h = (h ^ binary.LittleEndian.Uint64(b)) * 0x100000001b3
		b = b[8:]
	}
	for _, x := range b {
		h = (h ^ uint64(x)) * 0x100000001b3
	}
	return h
}

// EncodeDelta renders target as a PFWD frame against base. The result is
// always decodable (given the same base); it is only *useful* when base and
// target are similar — callers compare len(delta) against len(target) and
// ship the full blob when the delta does not win.
func EncodeDelta(base, target []byte) []byte {
	return AppendDelta(nil, base, target)
}

// AppendDelta is EncodeDelta into a reused buffer: the frame is appended to
// dst (which may be nil) and the extended slice returned, so pooled callers
// encode without allocating in steady state.
func AppendDelta(dst, base, target []byte) []byte {
	// Bytes past the base's end diff against zero, so a longer target's tail
	// XORs to itself and a shorter target is plain truncation via targetLen.
	at := func(i int) byte {
		if i < len(base) {
			return base[i]
		}
		return 0
	}
	// nextDiff returns the first index >= i where target differs from the
	// (zero-extended) base, or len(target). Equal regions are skipped a word
	// at a time: on megabyte snapshots that differ in a few kilobytes this is
	// the whole encode cost, and word compares make it memcmp-shaped.
	cm := min(len(base), len(target))
	nextDiff := func(i int) int {
		for i < cm {
			if i+8 <= cm && binary.LittleEndian.Uint64(target[i:]) == binary.LittleEndian.Uint64(base[i:]) {
				i += 8
				continue
			}
			if target[i] != base[i] {
				return i
			}
			i++
		}
		for i < len(target) {
			if i+8 <= len(target) && binary.LittleEndian.Uint64(target[i:]) == 0 {
				i += 8
				continue
			}
			if target[i] != 0 {
				return i
			}
			i++
		}
		return len(target)
	}

	w := Writer{buf: dst}
	w.Raw([]byte(deltaMagic))
	w.U16(deltaVersion)
	hashAt := w.Len()
	w.U64(0) // envelope hash, patched below
	payloadAt := w.Len()
	w.U64(HashBytes(base))
	w.U64(HashBytes(target))
	w.U32(uint32(len(target)))
	countAt := w.Len()
	w.U32(0) // run count, patched below

	runs := uint32(0)
	i := nextDiff(0)
	for i < len(target) {
		// Open a run at the first differing byte and extend it while the gaps
		// between differences stay below the coalescing threshold.
		start := i
		end := i + 1
		for end < len(target) {
			j := nextDiff(end)
			if j >= len(target) || j-end >= deltaGapCoalesce {
				break
			}
			end = j + 1
		}
		w.U32(uint32(start))
		w.U32(uint32(end - start))
		for j := start; j < end; j++ {
			w.U8(target[j] ^ at(j))
		}
		runs++
		i = nextDiff(end)
	}

	buf := w.Bytes()
	putU32(buf[countAt:], runs)
	putU64(buf[hashAt:], HashBytes(buf[payloadAt:]))
	return buf
}

// DecodeDelta reconstructs the target bytes from a PFWD frame and the base
// it was encoded against. It verifies, in order: the envelope hash (the
// frame itself is intact), the base hash (the caller holds the bytes the
// encoder diffed against), the run structure, and the reconstructed
// target's hash. Any mismatch is an error and no bytes are returned.
func DecodeDelta(base, delta []byte) ([]byte, error) {
	if len(delta) < deltaHeaderLen || string(delta[:4]) != deltaMagic {
		return nil, fmt.Errorf("wire: delta frame lacks %q magic", deltaMagic)
	}
	r := NewReader(delta[4:])
	if v := r.U16(); v != deltaVersion {
		return nil, fmt.Errorf("wire: delta frame version %d, this build speaks %d", v, deltaVersion)
	}
	envHash := r.U64()
	payload := r.Rest()
	if got := HashBytes(payload); got != envHash {
		return nil, fmt.Errorf("wire: delta envelope hash %016x does not match %016x (torn or corrupt frame)", got, envHash)
	}
	baseHash := r.U64()
	targetHash := r.U64()
	targetLen := int(r.U32())
	nRuns := int(r.U32())
	if err := r.Err(); err != nil {
		return nil, err
	}
	if targetLen < 0 || targetLen > maxDeltaTarget {
		return nil, fmt.Errorf("wire: delta target length %d exceeds the %d-byte bound", targetLen, maxDeltaTarget)
	}
	if got := HashBytes(base); got != baseHash {
		return nil, fmt.Errorf("%w: frame pins %016x, supplied base hashes to %016x", ErrDeltaBase, baseHash, got)
	}

	out := make([]byte, targetLen)
	copy(out, base)

	prevEnd := 0
	for k := 0; k < nRuns; k++ {
		off := int(r.U32())
		n := int(r.U32())
		if err := r.Err(); err != nil {
			return nil, err
		}
		if n <= 0 || off < prevEnd || off+n > targetLen || r.Remaining() < n {
			return nil, fmt.Errorf("wire: delta run %d ([%d,%d) of %d) is malformed", k, off, off+n, targetLen)
		}
		x := r.Rest()[:n]
		for j := 0; j < n; j++ {
			out[off+j] ^= x[j]
		}
		r.Skip(n)
		prevEnd = off + n
	}
	if r.Remaining() != 0 {
		return nil, fmt.Errorf("wire: delta frame has %d trailing bytes", r.Remaining())
	}
	if got := HashBytes(out); got != targetHash {
		return nil, fmt.Errorf("wire: reconstructed target hashes to %016x, frame pins %016x", got, targetHash)
	}
	return out, nil
}

// putU32 and putU64 patch little-endian words into an already-written
// buffer (the envelope hash and run count are known only after encoding).
func putU32(b []byte, v uint32) {
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
}

func putU64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}
