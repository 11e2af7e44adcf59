package wal

import (
	"bytes"
	"testing"
)

// encodeRawFrame renders one frame as Log.Write encodes it, for seeding
// the fuzzer and for the round-trip check below.
func encodeRawFrame(seq uint64, ops []Op) []byte {
	return appendFrame(nil, seq, payloadLen(ops), ops)
}

// FuzzWALDecode throws arbitrary bytes at the replay-side frame decoder.
// Recovery reads these bytes straight off a crashed log file, so the
// decoder must classify every input — torn tail, bit rot, hostile
// lengths — as either a clean rejection or a frame that re-encodes to the
// exact bytes it was decoded from. A panic or a non-canonical decode here
// is a recovery bug.
func FuzzWALDecode(f *testing.F) {
	f.Add(encodeRawFrame(1, []Op{{Key: 7, Value: []byte("v")}}))
	f.Add(encodeRawFrame(42, []Op{{Key: 1, Delete: true}, {Key: 2, Value: []byte("payload")}}))
	valid := encodeRawFrame(3, []Op{{Key: 9}})
	f.Add(valid[:len(valid)-3]) // torn tail
	corrupt := append([]byte(nil), valid...)
	corrupt[len(corrupt)-1] ^= 0x80 // payload bit flip: the CRC must catch it
	f.Add(corrupt)
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}) // implausible length field
	// Zero tails: the end of a segment's frames.
	zeros := make([]byte, 64)
	f.Add(append(append([]byte(nil), valid...), zeros...))                       // frame, then the fill
	f.Add(zeros[:3])                                                             // a fill shorter than a frame header
	f.Add(append(append([]byte(nil), zeros[:frameHeader]...), 0x5A))             // zero header, then a stray byte
	f.Add(append(append(append([]byte(nil), valid...), valid[:5]...), zeros...)) // torn frame inside the fill

	f.Fuzz(func(t *testing.T, data []byte) {
		checkSegmentScan(t, data)
		frameLen, payload, ok := parseFrame(data)
		if !ok {
			// Rejected at the frame layer. The payload decoder only ever
			// sees CRC-verified bytes in production, but it must not
			// depend on that for memory safety.
			_, _, _ = decodePayload(data)
			return
		}
		if frameLen < frameHeader || frameLen > len(data) {
			t.Fatalf("accepted frame length %d outside [%d, %d]", frameLen, frameHeader, len(data))
		}
		seq, ops, err := decodePayload(payload)
		if err != nil {
			return // CRC-valid but semantically malformed: rejected, not decoded
		}
		if len(ops) < 1 || len(ops) > maxFrameOps {
			t.Fatalf("decoded %d ops, outside [1, %d]", len(ops), maxFrameOps)
		}
		for i, op := range ops {
			if op.Delete && len(op.Value) != 0 {
				t.Fatalf("op %d: delete carries a %d-byte value", i, len(op.Value))
			}
		}
		// The codec is canonical: every accepted frame re-encodes to the
		// byte string it was decoded from. Divergence would mean two
		// distinct byte strings replay to the same operations.
		if re := encodeRawFrame(seq, ops); !bytes.Equal(re, data[:frameLen]) {
			t.Fatalf("decode/encode round trip diverged:\n in: %x\nout: %x", data[:frameLen], re)
		}
	})
}

// checkSegmentScan runs the segment-level scan over data as the body of a
// segment: the frames end on a whole-frame boundary, and the tail counts
// as the zero fill only if every byte of it is zero.
func checkSegmentScan(t *testing.T, data []byte) {
	seg := append(make([]byte, segHeaderSize), data...)
	end, clean := frameEnd(seg)
	if end < segHeaderSize || end > len(seg) {
		t.Fatalf("frame end %d outside [%d, %d]", end, segHeaderSize, len(seg))
	}
	zero := true
	for _, c := range seg[end:] {
		zero = zero && c == 0
	}
	if clean != zero {
		t.Fatalf("tail after offset %d called clean=%v, but all-zero=%v", end, clean, zero)
	}
	if span := nonZeroSpan(seg[end:]); (span == 0) != zero || span > int64(len(seg)-end) {
		t.Fatalf("non-zero span %d of a %d-byte tail (all-zero=%v)", span, len(seg)-end, zero)
	}
	for off := segHeaderSize; off < end; {
		n, _, ok := parseFrame(seg[off:])
		if !ok {
			t.Fatalf("frame end %d passes a bad frame at %d", end, off)
		}
		off += n
	}
}
